"""The differential oracle: every kernel form of every registry config,
checked from one table.

Each row of ``ROWS`` is one ``run_sycl`` pipeline on ``rtx2080``,
``sycl_opt``: a config, a geometry, a seed and a queue mode.  The
golden geometry (the default scale, seed 0) checks its bytes against
``runner._GOLDEN_DIGESTS``; the reduced geometry (smaller problems,
since item mode interprets every work-item) checks them against
``reference()`` at seeds 0-3.  Every row also pins its launches per
execution path, and a row in another mode than auto must give the auto
row's bytes and launch the same items and groups: pinning a form never
changes *what* is launched.  Bytes agree exactly, except where
``runner._TOLERANCES`` says otherwise (LavaMD).

Each row runs once per session (:func:`run` is cached), so other test
files check a row through :func:`check` without running it again.
``"compiled"`` is the queue's spelling of auto; its rows go when the
alias does.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import pytest

from repro.altis import Variant
from repro.altis.registry import APP_FACTORIES, make_app
from repro.harness.runner import (_DEFAULT_SCALES, _GOLDEN_DIGESTS,
                                  _TOLERANCES, _array_digest,
                                  generate_workload)
from repro.sycl import Queue
from tests.launch_totals import fold_timeline

CONFIGS = sorted(APP_FACTORIES)

#: per-config scale of the reduced geometry
_REDUCED_SCALES = {
    "CFD FP32": 0.0005, "CFD FP64": 0.0005,
    "DWT2D": 0.03, "FDTD2D": 0.02, "KMeans": 0.005,
    "LavaMD": 0.25, "Mandelbrot": 0.008, "NW": 0.008,
    "PF Naive": 0.03, "PF Float": 0.03,
    "Raytracing": 0.02, "SRAD": 0.008, "Where": 0.0002,
}

#: configs whose workload does not depend on the seed
_SEEDLESS = {"FDTD2D", "Mandelbrot"}

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

#: the reduced geometry launches as many kernels, except where the
#: problem size sets the count: KMeans converges in fewer iterations and
#: NW has fewer block anti-diagonals
_REDUCED_LAUNCHES = {**_LAUNCHES, "KMeans": (12, 12), "NW": (3, 3)}


class Row(NamedTuple):
    config: str
    geometry: str  # "golden" or "reduced"
    mode: str  # "auto", "item" or "compiled"
    seed: int
    launches: dict  # path -> launches
    oracle: str  # "digest" or "reference"

    @property
    def key(self) -> tuple:
        return self.config, self.geometry, self.mode, self.seed

    @property
    def id(self) -> str:
        return f"{self.geometry}-s{self.seed}-{self.mode}-{self.config}"


def _row(config: str, geometry: str, mode: str, seed: int = 0) -> Row:
    golden = geometry == "golden"
    total, items = (_LAUNCHES if golden else _REDUCED_LAUNCHES)[config]
    if mode != "item":
        items = 0
    launches = {path: n for path, n in (("item", items),
                                        ("vector", total - items)) if n}
    return Row(config, geometry, mode, seed, launches,
               "digest" if golden else "reference")


ROWS = {row.key: row for row in (
    *(_row(config, "golden", mode)
      for config in CONFIGS for mode in ("auto", "compiled")),
    *(_row(config, "reduced", mode, seed)
      for config in CONFIGS
      for seed in ((0,) if config in _SEEDLESS else (0, 1, 2, 3))
      for mode in ("auto", "item")),
)}


def _scale(config: str, geometry: str) -> float:
    return (_DEFAULT_SCALES if geometry == "golden"
            else _REDUCED_SCALES)[config]


def rerun(config: str, geometry: str, mode: str, seed: int = 0):
    """One fresh run of a row: ``(outputs, launch totals)``."""
    queue = Queue("rtx2080", default_mode=mode)
    workload = generate_workload(config, 1, seed=seed,
                                 scale=_scale(config, geometry))
    outputs = make_app(config).run_sycl(queue, workload, Variant.SYCL_OPT)
    return outputs, fold_timeline(queue)


@functools.cache
def run(config: str, geometry: str, mode: str, seed: int = 0):
    """The session's one run of a row; every test that checks the row
    shares its arrays, so they are read-only."""
    outputs, totals = rerun(config, geometry, mode, seed)
    for value in outputs.values():
        value.flags.writeable = False
    return outputs, totals


@functools.cache
def _reference(config: str, geometry: str, seed: int) -> dict:
    workload = generate_workload(config, 1, seed=seed,
                                 scale=_scale(config, geometry))
    return make_app(config).reference(workload)


def digests(outputs: dict) -> dict:
    """Per output, its ``(sha256, shape, dtype)``."""
    return {key: _array_digest(value) for key, value in outputs.items()}


def _assert_same_bytes(config: str, got: dict, want: dict) -> None:
    """``got`` equals ``want`` byte for byte, or within the config's
    ``_TOLERANCES`` entry."""
    assert set(got) == set(want)
    for key in want:
        msg = f"{config}: output {key!r} differs between runs"
        if config in _TOLERANCES:
            rtol, atol = _TOLERANCES[config]
            np.testing.assert_allclose(got[key], want[key], rtol=rtol,
                                       atol=atol, err_msg=msg)
        else:
            np.testing.assert_array_equal(got[key], want[key], err_msg=msg,
                                          strict=True)


def check(config: str, geometry: str, mode: str, seed: int = 0):
    """Check one row; return its ``(outputs, launch totals)``."""
    row = ROWS[config, geometry, mode, seed]
    outputs, totals = run(*row.key)
    assert totals.path_counts == row.launches, (
        f"{row.id}: launches per path {totals.path_counts}, "
        f"want {row.launches}")
    if row.oracle == "digest":
        assert digests(outputs) == _GOLDEN_DIGESTS[config], (
            f"{row.id}: outputs drifted from the golden digests; if "
            "intentional, regenerate them with REPRO_REGEN_GOLDEN=1")
    else:
        rtol, atol = _TOLERANCES.get(config, (0.0, 0.0))
        make_app(config).verify(outputs, _reference(config, geometry, seed),
                                rtol=rtol, atol=atol)
    if mode != "auto":
        auto_out, auto_totals = run(config, geometry, "auto", seed)
        _assert_same_bytes(config, outputs, auto_out)
        assert ((totals.items, totals.groups)
                == (auto_totals.items, auto_totals.groups))
    return outputs, totals


@pytest.mark.parametrize("row", ROWS.values(), ids=lambda row: row.id)
def test_row(row):
    check(*row.key)


#: nd-range kernels with a ``vector_fn`` and no ``item_fn``; item mode
#: runs their ``vector_fn``, so no row can compare two forms of them
_VECTOR_ONLY = {
    ("Raytracing", "render"):
        "one form only until ROADMAP item 1 writes a per-pixel item_fn",
    ("PF Naive", "likelihood"):
        "a no-op vector_fn run_sycl never launches; the FPGA design "
        "reads its metadata (ROADMAP item 4)",
    ("PF Float", "likelihood"):
        "a no-op vector_fn run_sycl never launches; the FPGA design "
        "reads its metadata (ROADMAP item 4)",
}


def test_every_nd_range_kernel_has_an_item_fn():
    """A new nd-range kernel without an ``item_fn`` fails here, under
    any variant; so does a listed one that gains an ``item_fn``."""
    vector_only = {(config, spec.name)
                   for config in CONFIGS for variant in Variant
                   for spec in make_app(config).kernels(variant).values()
                   if not spec.is_single_task
                   and spec.vector_fn is not None and spec.item_fn is None}
    assert vector_only == set(_VECTOR_ONLY)
