"""Golden-output regression fixtures for the whole Level-2 suite.

Every configuration is run at input size 1 (test scale, seed 0) and the
``run_sycl`` output arrays are hashed byte-exactly.  The checksums live
in the ``_GOLDEN_DIGESTS`` table of ``src/repro/harness/runner.py``,
where the installed package reads them to verify the suite's
digest-checked configs; the differential oracle's golden rows
(``test_differential_oracle.py``) pin every config to it, so any
executor/queue refactor that changes a result — even a bitwise change
the tolerance-based ``verify`` would forgive — fails loudly instead of
silently shifting the figures.  This file holds what is not a row: the
table's form, regeneration and the suite's use of the digests.

Regenerate the table after an *intentional* numerical change with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest -q tests/test_golden_fixtures.py

Regeneration verifies every config against its numpy reference (the
digest check is off while it runs) and rewrites the table in place.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.altis import cfd, lavamd, mandelbrot, raytracing
from repro.altis.base import Variant
from repro.altis.registry import APP_FACTORIES
from repro.common.errors import CellExecutionError
from repro.harness import runner
from repro.harness.reporting import render_suite_report
from repro.harness.runner import (_DEFAULT_SCALES, _DIGEST_CHECKED,
                                  _GOLDEN_DIGESTS, run_functional,
                                  run_suite_functional)
from tests.test_differential_oracle import check, digests, rerun

RUNNER_PATH = Path(runner.__file__)
_REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


def _table_source(table: dict) -> str:
    """The ``_GOLDEN_DIGESTS = {...}`` block of ``runner.py``."""
    lines = ["_GOLDEN_DIGESTS = {"]
    for config in sorted(table):
        lines.append(f"    {json.dumps(config)}: {{")
        for name, (sha256, shape, dtype) in sorted(table[config].items()):
            lines += [f"        {json.dumps(name)}: (",
                      f"            {json.dumps(sha256)},",
                      f"            {tuple(shape)!r}, {json.dumps(dtype)}),"]
        lines.append("    },")
    return "\n".join(lines + ["}"]) + "\n"


def _rewrite_table(table: dict) -> None:
    text = RUNNER_PATH.read_text()
    block = re.compile(r"^_GOLDEN_DIGESTS = \{\n.*?^\}\n", re.M | re.S)
    assert len(block.findall(text)) == 1
    RUNNER_PATH.write_text(block.sub(lambda _: _table_source(table), text))


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_golden_checksums(config, monkeypatch):
    if not _REGEN:
        check(config, "golden", "auto")
        return
    monkeypatch.setattr(runner, "_DIGEST_CHECKED", frozenset())
    result = run_functional(config, seed=0)
    assert result.verified
    _GOLDEN_DIGESTS[config] = digests(result.outputs)
    _rewrite_table(_GOLDEN_DIGESTS)
    pytest.skip(f"regenerated golden checksums for {config}")


def test_golden_file_covers_registry():
    """The digest table must track the registry exactly — an app added
    without a golden entry (or a stale entry for a removed app) fails —
    and ``runner.py`` must hold it in the form regeneration writes."""
    if _REGEN:
        pytest.skip("regenerating")
    assert set(_GOLDEN_DIGESTS) == set(APP_FACTORIES)
    assert _table_source(_GOLDEN_DIGESTS) in RUNNER_PATH.read_text()


def test_golden_runs_are_deterministic():
    """Same seed, same scale -> byte-identical outputs on repeat runs
    (the property the whole fixture scheme depends on)."""
    outputs, _ = check("KMeans", "golden", "auto")
    assert digests(rerun("KMeans", "golden", "auto")[0]) == digests(outputs)


#: the body each digest-checked config's ``vector_fn`` shares with its
#: ``reference()``, and the output dtype of the calls to perturb (the
#: two CFD configs share one body)
_SHARED_BODIES = {
    "CFD FP32": (cfd, "cfd_reference_iteration", np.float32),
    "CFD FP64": (cfd, "cfd_reference_iteration", np.float64),
    "LavaMD": (lavamd, "lavamd_reference", None),
    "Mandelbrot": (mandelbrot, "mandelbrot_reference", None),
    "Raytracing": (raytracing.Raytracing, "_render", None),
}


def _perturb_shared_body(monkeypatch, config: str) -> None:
    """Make ``config``'s shared body change one element of its output."""
    owner, name, dtype = _SHARED_BODIES[config]
    real = getattr(owner, name)

    def perturbed(*args, **kwargs):
        out = real(*args, **kwargs)
        parts = list(out) if isinstance(out, tuple) else [out]
        if dtype is None or parts[0].dtype == dtype:
            parts[0] = np.array(parts[0])
            parts[0].flat[0] += 1
        return tuple(parts) if isinstance(out, tuple) else parts[0]

    monkeypatch.setattr(owner, name, perturbed)


def test_shared_bodies_cover_the_digest_checked_configs():
    assert set(_SHARED_BODIES) == _DIGEST_CHECKED


@pytest.mark.parametrize("config", sorted(_DIGEST_CHECKED))
def test_suite_fails_a_perturbed_shared_body(config, monkeypatch):
    """A fault in a body that both the ``vector_fn`` and ``reference()``
    run passes a reference comparison; the digest check fails exactly
    that config's row, and aborts a default sweep at that config."""
    _perturb_shared_body(monkeypatch, config)
    rows = render_suite_report(
        run_suite_functional(degrade=True)).splitlines()[:-1]
    assert [row[:14].rstrip() for row in rows
            if row[15:].startswith("FAIL")] == [config]
    with pytest.raises(CellExecutionError) as excinfo:
        run_suite_functional()
    assert excinfo.value.key == config


def _nudge_one_output(monkeypatch, config: str) -> None:
    """Make ``config``'s ``run_sycl`` return one element moved by the
    smallest step of its dtype: one ulp for a float output (the first
    float output, if any), one for an integer one."""
    real = runner.make_app

    def nudging(name):
        app = real(name)
        if name != config:
            return app
        run_sycl = app.run_sycl

        def nudged(*args, **kwargs):
            out = dict(run_sycl(*args, **kwargs))
            floats = [k for k in out if np.asarray(out[k]).dtype.kind == "f"]
            key = (floats or list(out))[0]
            arr = np.array(out[key])
            if arr.dtype.kind == "f":
                arr.flat[0] = np.nextafter(arr.flat[0], np.inf,
                                           dtype=arr.dtype)
            else:
                arr.flat[0] += 1
            out[key] = arr
            return out

        app.run_sycl = nudged
        return app

    monkeypatch.setattr(runner, "make_app", nudging)


@pytest.mark.parametrize("config",
                         sorted(set(APP_FACTORIES) - _DIGEST_CHECKED))
def test_suite_fails_an_output_one_ulp_off(config, monkeypatch):
    """Verification is exact wherever the forms are bitwise equal: an
    output one ulp off its reference fails exactly that config's row."""
    _nudge_one_output(monkeypatch, config)
    rows = render_suite_report(
        run_suite_functional(degrade=True)).splitlines()[:-1]
    assert [row[:14].rstrip() for row in rows
            if row[15:].startswith("FAIL")] == [config]


def _count_references(monkeypatch) -> Counter:
    """Per config, the ``app.reference()`` calls the runner makes."""
    calls = Counter()
    real = runner.make_app

    def counting(config):
        app = real(config)
        reference = app.reference

        def counted(workload):
            calls[config] += 1
            return reference(workload)

        app.reference = counted
        return app

    monkeypatch.setattr(runner, "make_app", counting)
    return calls


@pytest.mark.parametrize("mode", ["auto", "compiled"])
def test_default_sweep_skips_the_shared_references(mode, monkeypatch):
    calls = _count_references(monkeypatch)
    run_suite_functional(mode=mode)
    assert calls == Counter(dict.fromkeys(
        set(_DEFAULT_SCALES) - _DIGEST_CHECKED, 1))


@pytest.mark.parametrize("geometry", [
    lambda config: {"mode": "item"},
    lambda config: {"variant": Variant.SYCL_BASELINE},
    lambda config: {"device_key": "a100"},
    lambda config: {"scale": _DEFAULT_SCALES[config] / 2},
    lambda config: {"seed": 1},
], ids=["item", "sycl_baseline", "a100", "half-scale", "seed1"])
def test_other_geometries_compute_the_reference(geometry, monkeypatch):
    """Off the golden geometry the digests do not apply: a
    digest-checked config computes its reference like every other."""
    calls = _count_references(monkeypatch)
    for config in sorted(_DIGEST_CHECKED):
        assert run_functional(config, **geometry(config)).verified
    assert calls == Counter(dict.fromkeys(_DIGEST_CHECKED, 1))
