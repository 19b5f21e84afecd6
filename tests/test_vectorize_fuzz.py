"""Property-based differential fuzzing of the compiled tier's dialect.

:mod:`tests.test_vectorize` pins hand-written kernels; this harness
generates *random* batchable kernel bodies — guards, stencil offsets,
conditional stores, bounded ``for range()`` loops, barrier splits, and
``LocalAccessor`` tiles — and asserts on every draw that the compiled
program is **bitwise identical** to the per-item interpreter.  A final
property splices one unsupported construct into an otherwise-batchable
body and checks the demotion path: a precise ineligibility reason, a
permanent fall back to the interpreter tier (surfaced through
``plan_cache_info()["tiers"]``), and — the contract that actually
matters — output buffers exactly as the interpreter would have left
them.

Generated sources are registered in ``linecache`` under synthetic
``<vectorize-fuzz-N>`` filenames so the translator's source read (the
``linecache`` lines its code positions cover: its one environmental
requirement) sees real source.

The dialect grammar below deliberately avoids the constructs whose
scalar and array semantics legitimately diverge (NaN-producing
arithmetic under ``min``/``max``, float32 ``math.*`` double rounding):
the fuzzer's job is to falsify the translator on the dialect it
*claims*, not to rediscover documented exclusions.
"""

from __future__ import annotations

import itertools
import linecache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sycl import (  # noqa: E402
    KernelKind,
    KernelSpec,
    NdRange,
    Range,
    eligible_form,
    vectorize_enabled,
)
from repro.sycl.buffer import LocalAccessor  # noqa: E402
from repro.sycl.executor import run_nd_range  # noqa: E402
from repro.sycl.plan import clear_plan_caches, plan_cache_info  # noqa: E402
from repro.trace.metrics import registry  # noqa: E402

pytestmark = pytest.mark.skipif(
    not vectorize_enabled(),
    reason="fuzzer asserts compiled-tier promotion; vectorizer is disabled")

_SETTINGS = settings(max_examples=30, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.too_slow])

_COUNTER = itertools.count()

#: constants small enough that products over the bounded expression
#: depth can never reach inf/NaN (where scalar min and np.minimum
#: would be allowed to disagree)
_CONSTS = st.sampled_from(
    ["0.25", "0.5", "0.75", "1.0", "1.5", "2.0", "-0.5", "-1.0"])


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------

@st.composite
def _expr(draw, names, depth):
    """One expression over ``names`` in the batchable dialect."""
    if depth <= 0:
        if names and draw(st.booleans()):
            return draw(st.sampled_from(names))
        return draw(_CONSTS)
    kind = draw(st.sampled_from(
        ["leaf", "add", "sub", "mul", "npmin", "npmax",
         "abs", "minb", "maxb", "ifexp"]))
    sub = _expr(names, depth - 1)
    if kind == "leaf":
        return draw(_expr(names, 0))
    if kind in ("add", "sub", "mul"):
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        return f"({draw(sub)} {op} {draw(sub)})"
    if kind in ("npmin", "npmax"):
        fn = "np.minimum" if kind == "npmin" else "np.maximum"
        return f"{fn}({draw(sub)}, {draw(sub)})"
    if kind == "abs":
        return f"abs({draw(sub)})"
    if kind in ("minb", "maxb"):
        fn = "min" if kind == "minb" else "max"
        return f"{fn}({draw(sub)}, {draw(sub)})"
    return (f"({draw(sub)} if {draw(sub)} > {draw(_CONSTS)} "
            f"else {draw(sub)})")


@st.composite
def _guard_body(draw):
    """Body lines (4-space indent applied later) for a guarded item
    kernel ``kfuzz(item, out, src, n)``; returns ``(lines, names)``."""
    names = ["v0"]
    lines = ["v0 = src[i]"]
    for k in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(
            ["assign", "stencil", "loop", "guarded_store"]))
        if kind == "assign":
            name = f"v{len(names)}"
            lines.append(f"{name} = {draw(_expr(names, 2))}")
            names.append(name)
        elif kind == "stencil":
            name = f"v{len(names)}"
            off = draw(st.integers(min_value=1, max_value=3))
            if draw(st.booleans()):
                lines.append(f"{name} = src[np.minimum(i + {off}, n - 1)]")
            else:
                lines.append(f"{name} = src[np.maximum(i - {off}, 0)]")
            names.append(name)
        elif kind == "loop":
            acc = f"acc{k}"
            trip = draw(st.integers(min_value=1, max_value=4))
            lines.append(f"{acc} = {draw(_CONSTS)}")
            lines.append(f"for q{k} in range({trip}):")
            lines.append(
                f"    {acc} = {acc} + {draw(_expr(names, 1))} * (q{k} + 1)")
            names.append(acc)
        else:
            lines.append(f"if {draw(_expr(names, 1))} > {draw(_CONSTS)}:")
            lines.append(f"    out[i] = {draw(_expr(names, 1))}")
    # accumulate into out so earlier guarded stores stay live
    lines.append(f"out[i] = out[i] + {draw(_expr(names, 2))}")
    return lines, names


def _assemble_guard(lines):
    body = "\n".join("    " + line for line in lines)
    return ("def kfuzz(item, out, src, n):\n"
            "    i = item.get_global_linear_id()\n"
            "    if i >= n:\n"
            "        return\n" + body + "\n")


@st.composite
def _tile_source(draw):
    """A barrier kernel threading a LocalAccessor tile through phases
    (no guard: generators reject lane-divergent returns, so the launch
    below keeps the range an exact multiple of the work-group)."""
    lines = [
        "t = item.get_local_id(0)",
        "i = item.get_global_linear_id()",
        f"tile[t] = src[i] * {draw(_CONSTS)} + {draw(_CONSTS)}",
        "yield item.barrier()",
    ]
    if draw(st.booleans()):  # an extra phase rewriting each lane's slot
        lines += [f"tile[t] = tile[t] * {draw(_CONSTS)}",
                  "yield item.barrier()"]
    lines += ["acc = 0.0", "for q in range(block):",
              f"    acc = acc + tile[q] * {draw(_CONSTS)}"]
    if draw(st.booleans()):  # barrier inside the static loop
        lines.append("    yield item.barrier()")
    off = draw(st.integers(min_value=0, max_value=2))
    lines.append(
        f"out[i] = acc + tile[np.minimum(t + {off}, block - 1)]")
    body = "\n".join("    " + line for line in lines)
    return "def kfuzz(item, out, src, tile, n, block):\n" + body + "\n"


#: (body lines to splice in, expected ineligibility-reason fragment)
_INJECTIONS = st.sampled_from([
    (["wf = 0.0", "while wf < 2.0:", "    wf = wf + 1.0"], "while loop"),
    (["for qb in range(2):", "    break"], "break/continue"),
    (["junk = len(src)", "v0 = v0 + junk * 0.0"], "len()"),
    (["for ql in range(i):", "    v0 = v0 + 1.0"], "launch-invariant"),
])


def _make_kernel(src_text):
    """Exec generated source under a synthetic linecache filename so
    the translator can read it back."""
    filename = f"<vectorize-fuzz-{next(_COUNTER)}>"
    linecache.cache[filename] = (
        len(src_text), None, src_text.splitlines(True), filename)
    namespace = {"np": np}
    exec(compile(src_text, filename, "exec"), namespace)
    return namespace["kfuzz"]


def _spec(fn, name):
    return KernelSpec(name=name, kind=KernelKind.ND_RANGE, item_fn=fn)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@_SETTINGS
@given(lines_names=_guard_body(), n=st.integers(min_value=33, max_value=64),
       seed=st.integers(min_value=0, max_value=2**16))
def test_fuzz_guarded_bodies_bitwise(lines_names, n, seed):
    """Any body the grammar emits must promote and match the
    interpreter byte for byte, including the guard's partial tail."""
    lines, _ = lines_names
    src_text = _assemble_guard(lines)
    fn = _make_kernel(src_text)
    spec = _spec(fn, "kfuzz")
    form, reason = eligible_form(spec)
    assert form == "item", f"grammar emitted an ineligible body " \
                           f"({reason}):\n{src_text}"

    src = np.random.default_rng(seed).random(n)
    nd = NdRange(Range(64), Range(16))
    ref = np.zeros(n)
    out = np.zeros(n)
    hot = np.zeros(n)
    clear_plan_caches()
    run_nd_range(spec, nd, (ref, src, n), mode="item")
    run_nd_range(spec, nd, (out, src, n), mode="compiled")  # validation
    stats = run_nd_range(spec, nd, (hot, src, n), mode="compiled")
    assert out.tobytes() == ref.tobytes(), \
        f"validation-run output diverged:\n{src_text}"
    assert hot.tobytes() == ref.tobytes(), \
        f"promoted-run output diverged:\n{src_text}"
    assert stats.path == "compiled", \
        f"shadow validation demoted a dialect body:\n{src_text}"


@_SETTINGS
@given(src_text=_tile_source(),
       seed=st.integers(min_value=0, max_value=2**16))
def test_fuzz_local_tiles_bitwise(src_text, seed):
    """Barrier kernels with LocalAccessor tiles batch bitwise across
    every phase split the grammar can draw."""
    fn = _make_kernel(src_text)
    spec = _spec(fn, "kfuzz_tile")
    form, reason = eligible_form(spec)
    assert form == "item", f"grammar emitted an ineligible body " \
                           f"({reason}):\n{src_text}"

    n, wg = 32, 8
    src = np.random.default_rng(seed).random(n)
    tile = LocalAccessor((wg,), np.float64)
    nd = NdRange(Range(n), Range(wg))
    ref = np.zeros(n)
    out = np.zeros(n)
    hot = np.zeros(n)
    clear_plan_caches()
    run_nd_range(spec, nd, (ref, src, tile, n, wg), mode="item")
    run_nd_range(spec, nd, (out, src, tile, n, wg), mode="compiled")
    stats = run_nd_range(spec, nd, (hot, src, tile, n, wg), mode="compiled")
    assert out.tobytes() == ref.tobytes(), \
        f"validation-run output diverged:\n{src_text}"
    assert hot.tobytes() == ref.tobytes(), \
        f"promoted-run output diverged:\n{src_text}"
    assert stats.path == "compiled", \
        f"shadow validation demoted a tile body:\n{src_text}"


@_SETTINGS
@given(lines_names=_guard_body(), injection=_INJECTIONS,
       seed=st.integers(min_value=0, max_value=2**16))
def test_fuzz_injected_construct_demotes(lines_names, injection, seed):
    """Splicing one unsupported construct into a batchable body must
    demote the plan with a precise reason — and the demoted launch
    still produces interpreter-identical bytes."""
    lines, _ = lines_names
    bad_lines, fragment = injection
    src_text = _assemble_guard(lines[:-1] + bad_lines + lines[-1:])
    fn = _make_kernel(src_text)
    spec = _spec(fn, "kfuzz_demoted")
    form, reason = eligible_form(spec)
    assert form is None and fragment in reason, \
        f"expected {fragment!r} in ineligibility reason, got " \
        f"{reason!r}:\n{src_text}"

    n = 50
    src = np.random.default_rng(seed).random(n)
    nd = NdRange(Range(64), Range(16))
    ref = np.zeros(n)
    out = np.zeros(n)
    clear_plan_caches()
    before = registry.counter("vectorize.fallback").value
    run_nd_range(spec, nd, (ref, src, n), mode="item")
    stats = run_nd_range(spec, nd, (out, src, n), mode="compiled")
    assert stats.path == "item"
    assert out.tobytes() == ref.tobytes(), \
        f"demoted run diverged from the interpreter:\n{src_text}"
    assert registry.counter("vectorize.fallback").value > before
    tiers = plan_cache_info()["tiers"]
    assert fragment in tiers["item"]["fallbacks"]["kfuzz_demoted"], \
        f"tier info lost the demotion reason: {tiers}"
