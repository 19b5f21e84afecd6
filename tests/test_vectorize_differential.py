"""Differential tests: the compiled tier must be invisible in results.

Every benchmark configuration runs twice — once in ``mode="compiled"``
(the tier on), once in ``mode="item"`` (the tier off: the per-item
interpreter) — and the output buffers must be **byte-identical**, not
merely close.  The tier's design makes this hold by construction: the
batched program is compiled from, validated against (bitwise, on buffer
copies), and demoted to the exact interpreter form item mode runs.

A second pass pins the suite to the golden checksum fixtures in auto
mode, so the default path selection cannot silently shift the figures;
a third pins each config's tier assignment (including demotion reasons)
to ``tests/golden/tiers.json`` so a dialect regression that silently
drops an app back to the interpreter fails loudly.

Regenerate the tier fixture after an *intentional* dialect change with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest -q tests/test_vectorize_differential.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.altis.registry import APP_FACTORIES
from repro.harness.runner import run_functional
from repro.sycl.plan import clear_plan_caches, plan_cache_info

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "size1_checksums.json"
TIERS_GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "tiers.json"
_REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

#: configs whose kernels were written in (or rewritten into) the
#: batchable dialect — these must actually engage the compiled tier,
#: so the byte-identity assertion is not vacuous
COMPILED_CONFIGS = ("SRAD", "FDTD2D", "Where", "NW", "KMeans", "Mandelbrot",
                    "CFD FP32", "CFD FP64", "LavaMD")


def _digests(config: str, mode: str) -> dict:
    result = run_functional(config, seed=0, mode=mode)
    assert result.verified
    return {
        key: hashlib.sha256(
            np.ascontiguousarray(np.asarray(value)).tobytes()).hexdigest()
        for key, value in sorted(result.outputs.items())
    }


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_compiled_mode_byte_identical_on_off(config):
    clear_plan_caches()
    on = _digests(config, "compiled")
    tiers = plan_cache_info()["tiers"]
    off = _digests(config, "item")
    assert on == off, (
        f"{config}: compiled-tier outputs differ from the interpreter")
    if config in COMPILED_CONFIGS:
        compiled = tiers.get("compiled")
        assert compiled and compiled["count"] > 0, (
            f"{config}: expected at least one compiled-tier plan, "
            f"got {tiers}")
        assert compiled["fallbacks"] == {}, (
            f"{config}: compiled plans must not carry demotion reasons, "
            f"got {compiled['fallbacks']}")


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
    """Each config's ``mode="compiled"`` tier split — which plans run
    batched, which fall back, and *why* — is pinned to
    ``tests/golden/tiers.json``.  A dialect regression that silently
    demotes an app (or a fallback whose reason string drifts) fails
    with the full before/after mapping."""
    clear_plan_caches()
    _digests(config, "compiled")
    got = plan_cache_info()["tiers"]
    golden = (json.loads(TIERS_GOLDEN_PATH.read_text())
              if TIERS_GOLDEN_PATH.exists() else {})
    if _REGEN:
        golden[config] = got
        TIERS_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        TIERS_GOLDEN_PATH.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated golden tiers for {config}")
    assert config in golden, (
        f"no golden tier entry for {config!r}; run with REPRO_REGEN_GOLDEN=1")
    want = golden[config]
    assert got == want, (
        f"{config}: tier assignment drifted from the golden fixture\n"
        f"  got:  {json.dumps(got, sort_keys=True)}\n"
        f"  want: {json.dumps(want, sort_keys=True)}\n"
        "if intentional, regenerate with REPRO_REGEN_GOLDEN=1")
