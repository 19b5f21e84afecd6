"""Differential tests: ``mode="compiled"`` must be invisible in results.

The batched compiled tier is gone; ``"compiled"`` survives only as a
spelling of ``"auto"``, resolved by ``Queue``, until the benchmark's
``suite-compiled`` workload is retired.  Every benchmark configuration
runs once with the spelling and once without it, and the output buffers
must be **byte-identical**, served by the same plans.

A second pass pins the suite to the golden checksum fixtures in auto
mode, so the default path selection cannot silently shift the figures;
a third pins each config's plan split per execution path, in the
compiled spelling and in item mode, so a kernel that silently loses its
``vector_fn`` or ``item_fn`` fails loudly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.altis.registry import APP_FACTORIES
from repro.harness.runner import run_functional
from repro.sycl.plan import clear_plan_caches, plan_cache_info

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "size1_checksums.json"

#: per config, ``(plans, plans with an item_fn)``: auto runs every
#: plan's ``vector_fn``, item mode the ``item_fn`` where there is one
_PLANS = {
    "CFD FP32": (1, 1), "CFD FP64": (1, 1), "DWT2D": (6, 6),
    "FDTD2D": (3, 3), "KMeans": (4, 1), "LavaMD": (1, 1),
    "Mandelbrot": (1, 1), "NW": (5, 5), "PF Float": (1, 1),
    "PF Naive": (1, 1), "Raytracing": (1, 0), "SRAD": (2, 2),
    "Where": (2, 2),
}


def _digests(config: str, mode: str) -> dict:
    result = run_functional(config, seed=0, mode=mode)
    assert result.verified
    return {
        key: hashlib.sha256(
            np.ascontiguousarray(np.asarray(value)).tobytes()).hexdigest()
        for key, value in sorted(result.outputs.items())
    }


def _tiers(config: str, mode: str) -> dict:
    clear_plan_caches()
    _digests(config, mode)
    return plan_cache_info()["tiers"]


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_compiled_mode_byte_identical_on_off(config):
    clear_plan_caches()
    on = _digests(config, "compiled")
    on_tiers = plan_cache_info()["tiers"]
    clear_plan_caches()
    off = _digests(config, "auto")
    assert on == off, (
        f"{config}: mode='compiled' outputs differ from auto")
    assert on_tiers == plan_cache_info()["tiers"], (
        f"{config}: mode='compiled' built other plans than auto")


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_auto_mode_matches_golden_with_vectorizer(config):
    """Auto-mode results must equal the golden fixtures."""
    clear_plan_caches()
    got = _digests(config, "auto")
    golden = json.loads(GOLDEN_PATH.read_text())[config]
    assert set(got) == set(golden)
    for key, digest in golden.items():
        assert got[key] == digest["sha256"], (
            f"{config}: output {key!r} drifted from the golden fixture "
            "in auto mode")


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_tier_assignment_pinned(config):
    """Each config's plan split per path is pinned to ``_PLANS``: the
    compiled spelling runs every plan's ``vector_fn``, and item mode
    runs the ``item_fn`` of each plan that has one."""
    plans, items = _PLANS[config]
    assert _tiers(config, "compiled") == {"vector": {"count": plans}}
    want = {path: {"count": n}
            for path, n in (("item", items), ("vector", plans - items)) if n}
    assert _tiers(config, "item") == want
