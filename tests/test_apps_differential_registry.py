"""Registry-wide differential kernel-form tests.

The hand-listed item-vs-vector tests (test_apps_item_vs_vector.py) pin
individual kernels; this module closes the gap the issue calls out: for
*every* configuration in the registry, the full ``run_sycl`` pipeline is
executed once per executor path — auto (vector-preferring) and item —
through ``Queue(default_mode=...)``, and both paths must agree.
Kernels that do not implement a pinned form fall back to automatic
selection, so "where implemented" is decided per kernel, not per app.
``"compiled"``, a spelling of auto, must serve every launch exactly as
auto does.  Agreement is byte for byte, except for LavaMD
(see ``_DIFF_TOLERANCES``).
"""

import numpy as np
import pytest

from repro.altis import Variant
from repro.altis.registry import APP_FACTORIES, make_app
from repro.sycl import Queue
from repro.sycl.event import CommandKind

#: decomposed paths run every work-group (item: every work-item) through
#: the interpreter, so the differential sweep uses smaller problems than
#: the vectorized functional tests
_DIFF_SCALES = {
    "CFD FP32": 0.0005, "CFD FP64": 0.0005,
    "DWT2D": 0.03, "FDTD2D": 0.02, "KMeans": 0.005,
    "LavaMD": 0.25, "Mandelbrot": 0.008, "NW": 0.008,
    "PF Naive": 0.03, "PF Float": 0.03,
    "Raytracing": 0.02, "SRAD": 0.008, "Where": 0.0002,
}

#: LavaMD's vector form reduces through ``einsum`` and ``.sum``, whose
#: summation order a per-item scalar loop does not reproduce; every
#: other config must agree byte for byte
_DIFF_TOLERANCES = {"LavaMD": (1e-3, 1e-4)}

#: configs whose workload does not depend on the seed
_SEEDLESS = {"FDTD2D", "Mandelbrot"}


def _run_with_mode(config: str, mode: str | None, seed: int = 0):
    """Run one config's full pipeline with a pinned executor path.

    Returns ``(outputs, queue, app, workload)`` so callers can inspect
    both results and which paths actually served the launches.
    """
    app = make_app(config)
    workload = app.generate(1, seed=seed, scale=_DIFF_SCALES[config])
    queue = Queue("rtx2080", default_mode=mode)
    outputs = app.run_sycl(queue, workload, Variant.SYCL_OPT)
    return outputs, queue, app, workload


def _assert_outputs_agree(config: str, got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key in want:
        msg = f"{config}: output {key!r} differs between kernel forms"
        if config in _DIFF_TOLERANCES:
            rtol, atol = _DIFF_TOLERANCES[config]
            np.testing.assert_allclose(np.asarray(got[key]),
                                       np.asarray(want[key]), rtol=rtol,
                                       atol=atol, err_msg=msg)
        else:
            np.testing.assert_array_equal(np.asarray(got[key]),
                                          np.asarray(want[key]),
                                          err_msg=msg, strict=True)


@pytest.mark.parametrize("mode", ["item", "compiled"])
@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_kernel_forms_agree(config, mode):
    """Every decomposed path must reproduce the auto-selected result."""
    base_out, base_queue, app, workload = _run_with_mode(config, None)
    alt_out, alt_queue, _, _ = _run_with_mode(config, mode)
    _assert_outputs_agree(config, alt_out, base_out)

    # same launches either way: pinning a path must never change *what*
    # is launched, only how it executes
    assert (alt_queue.counters.kernel_launches
            == base_queue.counters.kernel_launches)
    assert alt_queue.counters.items == base_queue.counters.items

    if mode == "compiled":
        # the auto spelling: the same path serves every launch
        assert (alt_queue.counters.path_counts
                == base_queue.counters.path_counts)
        return

    # "where implemented": every launched nd-range kernel that has the
    # pinned form must actually have been served by it
    launched = {t.event.name for t in alt_queue.timeline
                if t.event.kind is CommandKind.KERNEL}
    specs = {k.name: k for k in app.kernels(Variant.SYCL_OPT).values()}

    expected = any(
        getattr(specs[name], f"{mode}_fn") is not None
        for name in launched if name in specs
        and not specs[name].is_single_task
    )
    if expected:
        assert alt_queue.counters.path_counts.get(mode, 0) > 0, (
            f"{config}: mode={mode} never exercised although a launched "
            f"kernel implements it: {alt_queue.counters.path_counts}")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("config", sorted(set(APP_FACTORIES) - _SEEDLESS))
def test_kernel_forms_agree_on_more_seeds(config, seed):
    """Byte equality across forms is not an accident of seed 0."""
    base_out = _run_with_mode(config, None, seed)[0]
    _assert_outputs_agree(config, _run_with_mode(config, "item", seed)[0],
                          base_out)


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_decomposed_paths_match_reference(config):
    """The strictest decomposed run also satisfies the numpy reference
    (not just self-consistency between paths)."""
    outputs, _, app, workload = _run_with_mode(config, "item")
    from repro.harness.runner import _TOLERANCES

    rtol, atol = _TOLERANCES.get(config, (0.0, 0.0))
    app.verify(outputs, app.reference(workload), rtol=rtol, atol=atol)
