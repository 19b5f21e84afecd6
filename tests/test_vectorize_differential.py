"""Differential tests: ``mode="compiled"`` must be invisible in results.

The batched compiled tier is gone; ``"compiled"`` survives only as a
spelling of ``"auto"``, resolved by ``Queue``, until the benchmark's
``suite-compiled`` workload is retired.  Every benchmark configuration
runs once with the spelling and once without it, and the output buffers
must be **byte-identical**, with the same launches on each path.

A second pass pins the suite to the golden checksum table
(``runner._GOLDEN_DIGESTS``) in auto mode, so the default path
selection cannot silently shift the figures; a third pins each config's
launch count per execution path (``Queue.counters.path_counts``), in
the compiled spelling and in item mode, so a kernel that silently loses
its ``vector_fn`` or ``item_fn`` fails loudly.
"""

from __future__ import annotations

import pytest

from repro.altis import Variant
from repro.altis.registry import APP_FACTORIES, make_app
from repro.harness.runner import (_DEFAULT_SCALES, _GOLDEN_DIGESTS,
                                  _array_digest, generate_workload,
                                  run_functional)
from repro.sycl import Queue

#: per config at its default scale, ``(launches, launches of a kernel
#: with an item_fn)``: auto runs every ``vector_fn``, item mode the
#: ``item_fn`` where there is one
_LAUNCHES = {
    "CFD FP32": (3, 3), "CFD FP64": (3, 3), "DWT2D": (6, 6),
    "FDTD2D": (9, 9), "KMeans": (20, 20), "LavaMD": (1, 1),
    "Mandelbrot": (1, 1), "NW": (9, 9), "PF Float": (4, 4),
    "PF Naive": (4, 4), "Raytracing": (1, 0), "SRAD": (8, 8),
    "Where": (2, 2),
}


def _digests(config: str, mode: str) -> dict:
    result = run_functional(config, seed=0, mode=mode)
    assert result.verified
    return {key: _array_digest(value)
            for key, value in sorted(result.outputs.items())}


def _path_counts(config: str, mode: str) -> dict:
    """Launches per execution path of one default-geometry run."""
    workload = generate_workload(config, 1, seed=0,
                                 scale=_DEFAULT_SCALES[config])
    queue = Queue("rtx2080", default_mode=mode)
    make_app(config).run_sycl(queue, workload, Variant.SYCL_OPT)
    return queue.counters.path_counts


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_compiled_mode_byte_identical_on_off(config):
    on = _digests(config, "compiled")
    off = _digests(config, "auto")
    assert on == off, (
        f"{config}: mode='compiled' outputs differ from auto")
    assert (_path_counts(config, "compiled")
            == _path_counts(config, "auto")), (
        f"{config}: mode='compiled' launched other paths than auto")


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_auto_mode_matches_golden_with_vectorizer(config):
    """Auto-mode results must equal the golden fixtures."""
    got = _digests(config, "auto")
    golden = _GOLDEN_DIGESTS[config]
    assert set(got) == set(golden)
    for key, digest in golden.items():
        assert got[key] == digest, (
            f"{config}: output {key!r} drifted from the golden fixture "
            "in auto mode")


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_tier_assignment_pinned(config):
    """Each config's launches per path are pinned to ``_LAUNCHES``: the
    compiled spelling runs every kernel's ``vector_fn``, and item mode
    runs the ``item_fn`` of each kernel that has one."""
    launches, items = _LAUNCHES[config]
    assert _path_counts(config, "compiled") == {"vector": launches}
    want = {path: n for path, n in (("item", items),
                                    ("vector", launches - items)) if n}
    assert _path_counts(config, "item") == want
