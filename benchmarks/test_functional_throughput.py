"""Wall-clock benchmarks of the functional layer itself (the Python
runtime executing real kernels) — pytest-benchmark's bread and butter."""

import pytest

from repro.altis import Variant, make_app
from repro.harness.runner import run_functional
from repro.sycl import Queue

_CONFIGS = ("Mandelbrot", "KMeans", "NW", "SRAD", "FDTD2D", "Where",
            "DWT2D", "LavaMD", "CFD FP32", "PF Float", "Raytracing")


@pytest.mark.parametrize("config", _CONFIGS)
def test_functional_run(benchmark, config):
    """Generate/run/verify each app once per benchmark round."""
    result = benchmark.pedantic(run_functional, args=(config,),
                                rounds=3, iterations=1)
    assert result.verified


def test_barrier_executor_throughput(benchmark):
    """Per-item generator execution with barriers (the slow, faithful
    path) on an NW tile wavefront."""
    import numpy as np

    from repro.altis.nw import NW, _similarity
    from repro.sycl.local_memory import LocalAccessor
    from repro.sycl import NdRange, Range
    from repro.sycl.executor import run_nd_range

    app = NW()
    wl = app.generate(1, scale=0.01)
    p = wl.params
    n, block, penalty = p["n"], p["block"], p["penalty"]
    nb = n // block
    sim = _similarity(wl["seq_a"], wl["seq_b"], wl["blosum"]).astype(np.int32)
    kern = app.kernels()["needle_block"]
    tile = LocalAccessor((block + 1, block + 1), np.int32)

    def run():
        score = np.zeros((n + 1, n + 1), dtype=np.int32)
        score[0, :] = -penalty * np.arange(n + 1)
        score[:, 0] = -penalty * np.arange(n + 1)
        for d in range(2 * nb - 1):
            blocks = (d + 1) if d < nb else (2 * nb - 1 - d)
            run_nd_range(kern, NdRange(Range(blocks * block), Range(block)),
                         (score, sim, tile, penalty, d, nb, n, block),
                         mode="item")
        return score

    score = benchmark(run)
    assert score[n, n] == app.reference(wl)["score"][n, n]


def test_dataflow_scheduler_throughput(benchmark):
    """Pipe round-trip rate of the cooperative scheduler."""
    from repro.sycl import DataflowGraph, Pipe

    def run():
        p = Pipe(capacity=8)
        total = []

        def producer():
            for i in range(2000):
                yield from p.write_blocking(i)

        def consumer():
            acc = 0
            for _ in range(2000):
                acc += yield from p.read_blocking()
            total.append(acc)

        g = DataflowGraph()
        g.add_kernel("prod", producer)
        g.add_kernel("cons", consumer)
        g.run()
        return total[0]

    assert benchmark(run) == sum(range(2000))
