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
import math

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
    prove_exact,
)
from repro.sycl.local_memory import LocalAccessor  # noqa: E402
from repro.sycl.executor import run_nd_range  # noqa: E402
from repro.sycl.plan import (  # noqa: E402
    clear_plan_caches,
    get_plan,
    plan_cache_info,
)
from repro.trace.metrics import registry  # noqa: E402

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
    namespace = {"np": np, "math": math}
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


# ---------------------------------------------------------------------------
# Static exactness proofs
# ---------------------------------------------------------------------------

#: leaves of the wider grammar: lanes of several dtypes, weak Python
#: scalars (zero included, and one whose square times a lane id leaves
#: int64), strong numpy scalars and the scalar argument
_WIDE_LEAVES = ["v0", "v0", "i", "i", "s", "0.1", "2", "0", "0.0", "-1.5",
                "3", "3037000500", "np.float32(0.1)", "np.float64(0.3)",
                "np.int32(3)", "idx[i]"]


@st.composite
def _wide_expr(draw, depth, extra=()):
    """An expression from a grammar wider than the translator's safe
    subset: it reaches every hazard the static pass must refuse."""
    leaves = st.sampled_from(_WIDE_LEAVES + list(extra))
    if depth <= 0:
        return draw(leaves)
    # mostly exact arithmetic, so that most draws reach the proof; the
    # hazards (pow, exp, builtin min/max) are rarer
    kind = draw(st.sampled_from(
        ["leaf"] * 4 + ["add"] * 5 + ["sub"] * 3 + ["mul"] * 5 + ["div"] * 3
        + ["sqrt", "npmin", "npmax", "abs", "float", "ifexp", "where",
           "pow", "exp", "mexp", "minb", "maxb", "shl"]))
    sub = _wide_expr(depth - 1, extra)
    if kind == "leaf":
        return draw(leaves)
    ops = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "**"}
    if kind in ops:
        return f"({draw(sub)} {ops[kind]} {draw(sub)})"
    if kind == "shl":
        return f"({draw(sub)} << 31)"
    if kind in ("sqrt", "exp", "mexp", "abs", "float"):
        fn = {"sqrt": "np.sqrt", "exp": "np.exp",
              "mexp": "math.exp"}.get(kind, kind)
        return f"{fn}({draw(sub)})"
    if kind in ("npmin", "npmax", "minb", "maxb"):
        fn = {"npmin": "np.minimum", "npmax": "np.maximum", "minb": "min",
              "maxb": "max"}[kind]
        return f"{fn}({draw(sub)}, {draw(sub)})"
    cond = f"{draw(sub)} < {draw(sub)}"
    if kind == "ifexp":
        return f"({draw(sub)} if {cond} else {draw(sub)})"
    return f"np.where({cond}, {draw(sub)}, {draw(sub)})"


#: stores, including the racy and data-indexed ones
_WIDE_STORES = [
    "out[i] = {e}",
    "out[i] = out[i] + {e}",
    "out[i % 4] = {e}",
    "out[i % 4] = out[i % 4] + {e}",
    "out[idx[i]] = {e}",
    "out[idx[i]] = out[idx[i]] + {e}",
    "out[i] = out[np.minimum(i + 1, n - 1)] + {e}",
    "out[i] = out[np.maximum(i - 1, 0)] + {e}",
    "if {e} < 1.0:\n        out[i] = {e}",
]


#: residual calls a replay draw routes ``v1`` through
_RESIDUAL_CALLS = ["np.exp({})", "math.exp({})", "({}) ** 2", "np.log({})",
                   "np.sin({})", "math.sqrt({})"]


@st.composite
def _wide_source(draw, replay=False):
    """A kernel from the wide grammar; with ``replay``, ``v1`` passes
    through a residual call and every store is at the item's own index,
    so that most draws reach replay validation."""
    v1 = draw(_wide_expr(2))
    if replay:
        v1 = draw(st.sampled_from(_RESIDUAL_CALLS)).format(v1)
    lines = ["v0 = src[i]", f"v1 = {v1}"]
    if draw(st.booleans()):
        lines += ["acc = 0.0", "for q in range(3):",
                  f"    acc = acc + {draw(_wide_expr(1, ['q', 'acc']))}",
                  "v1 = v1 + acc"]
    store = draw(st.sampled_from(
        [_WIDE_STORES[0], _WIDE_STORES[1], _WIDE_STORES[-1]] if replay
        else _WIDE_STORES))
    lines.append(store.format(e=draw(_wide_expr(2, ["v1"]))))
    body = "\n".join("    " + line for line in lines)
    return ("def kfuzz(item, out, src, idx, n, s):\n"
            "    i = item.get_global_linear_id()\n"
            "    if i >= n:\n"
            "        return\n" + body + "\n")


_WIDE_SCALARS = st.sampled_from([0.0, 1.5, 0, 3, np.float32(0.25),
                                 np.float64(-2.0)])


def _wide_args(n, seed, dtypes, s):
    """``(out, src, idx, n, s)`` for a ``_wide_source`` kernel."""
    rng = np.random.default_rng(seed)
    out_dt, src_dt = map(np.dtype, dtypes)
    src = (rng.random(n) * 4 - 1).astype(src_dt) if src_dt.kind == "f" \
        else rng.integers(-3, 4, n).astype(src_dt)
    return (np.zeros(n, out_dt), src,
            rng.integers(0, n, n).astype(np.int32), n, s)


_WIDE_DTYPES = st.sampled_from([("f4", "f4"), ("f8", "f8"), ("f4", "f8"),
                                ("f8", "f4"), ("i4", "i4"), ("i8", "i8")])


def _outcome(spec, nd, args, mode):
    """The output bytes of one launch on copies, or the exception type
    it raised."""
    copies = tuple(a.copy() if isinstance(a, np.ndarray) else a
                   for a in args)
    try:
        run_nd_range(spec, nd, copies, mode=mode)
    except Exception as exc:  # noqa: BLE001 — compared, not hidden
        return type(exc).__name__
    return copies[0].tobytes()


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(src_text=_wide_source(), n=st.integers(min_value=33, max_value=64),
       seed=st.integers(min_value=0, max_value=2**16),
       dtypes=_WIDE_DTYPES, s=_WIDE_SCALARS)
def test_fuzz_static_proofs_are_sound(src_text, n, seed, dtypes, s):
    """Every draw the static pass calls exact runs its batched program
    directly (no shadow run) and must leave the interpreter's bytes."""
    fn = _make_kernel(src_text)
    spec = _spec(fn, "kwide")
    if eligible_form(spec)[0] is None:
        return  # outside the dialect: never compiled, nothing to prove
    args = _wide_args(n, seed, dtypes, s)
    nd = NdRange(Range(64), Range(16))
    if prove_exact(fn, nd, args) is not None:
        return
    clear_plan_caches()
    hot = _outcome(spec, nd, args, "compiled")
    plan = get_plan(spec, nd, mode="compiled")
    assert plan.describe()["validated_by"] == "static", src_text
    assert hot == _outcome(spec, nd, args, "item"), \
        f"a statically proven kernel diverged from the interpreter:\n" \
        f"{src_text}\nargs dtypes {dtypes}, s={s!r}"


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(src_text=_wide_source(replay=True),
       n=st.integers(min_value=33, max_value=64),
       seed=st.integers(min_value=0, max_value=2**16),
       dtypes=_WIDE_DTYPES, s=_WIDE_SCALARS)
def test_fuzz_replay_validation_is_sound(src_text, n, seed, dtypes, s):
    """Every draw the launch-mode pass proves exact apart from residual
    calls (``np.exp``, ``math.exp``, ``**``) is validated by replay or
    demoted, and must leave the interpreter's bytes (or raise what the
    interpreter raises)."""
    fn = _make_kernel(src_text)
    spec = _spec(fn, "kreplay")
    if eligible_form(spec)[0] is None:
        return
    args = _wide_args(n, seed, dtypes, s)
    nd = NdRange(Range(64), Range(16))
    sites = {}
    if prove_exact(fn, nd, args, sites=sites) is not None or not sites:
        return
    clear_plan_caches()
    hot = _outcome(spec, nd, args, "compiled")
    how = get_plan(spec, nd, mode="compiled").describe()["validated_by"]
    assert how in ("replay", None), src_text  # None: demoted
    assert hot == _outcome(spec, nd, args, "item"), \
        f"a replay-validated kernel diverged from the interpreter:\n" \
        f"{src_text}\nargs dtypes {dtypes}, s={s!r}"


def _scalar_differs(body, src):
    """Whether the interpreter's scalar call and the batched array call
    of ``body`` differ in bits on some element of ``src`` (host-dependent
    for ``math.exp``: numpy may pick a SIMD loop libm does not use)."""
    if body == "out[i] = v0 ** 2":
        return any((x ** 2).tobytes() != y.tobytes()
                   for x, y in zip(src, src ** 2))
    return any(np.float64(math.exp(x)).tobytes() != y.tobytes()
               for x, y in zip(src.tolist(), np.exp(src)))


@pytest.mark.parametrize("body, dtype, planted", [
    # float32 inputs whose scalar square rounds differently from numpy's
    # array square (measured on x86-64)
    ("out[i] = v0 ** 2", "f4", [-0.34613037, 2.590332, 1.971686]),
    # float64 inputs where libm's exp and numpy's SIMD exp differ
    ("out[i] = math.exp(v0)", "f8",
     [2.2922923051961424, 2.8947789362487084, -0.3446095579522721]),
], ids=["float32 pow", "float64 math.exp"])
def test_replay_mismatch_demotes(body, dtype, planted):
    """A planted input where a residual call's scalar and array results
    differ demotes the replaying launch, which then leaves the
    interpreter's bytes; without one, the launch is replay-validated."""
    fn = _hazard_kernel(body)
    spec = _spec(fn, "kplanted")
    src = np.random.default_rng(7).random(64).astype(dtype)
    src[[5, 30, 61]] = planted
    args = (np.zeros(64, dtype), src, np.zeros(64, np.int32), 64, 1.0)
    nd = NdRange(Range(64), Range(16))
    sites = {}
    assert prove_exact(fn, nd, args, sites=sites) is None and sites
    differs = _scalar_differs(body, src)
    before = registry.counter("vectorize.replay.mismatches").value
    clear_plan_caches()
    hot = _outcome(spec, nd, args, "compiled")
    plan = get_plan(spec, nd, mode="compiled")
    assert hot == _outcome(spec, nd, args, "item")
    assert plan.describe()["validated_by"] == (None if differs else "replay")
    assert registry.counter("vectorize.replay.mismatches").value \
        == before + differs


def _barrier_kernel(body):
    return _make_kernel(
        "def kfuzz(item, out, src):\n"
        "    i = item.get_global_linear_id()\n" + body)


def test_static_pass_admits_barrier_kernels_without_tiles():
    """A top-level barrier between own-index writes cannot pass data
    between work-items, so the kernel is proven like any other."""
    fn = _barrier_kernel("    out[i] = src[i] * 2.0\n"
                         "    yield item.barrier()\n"
                         "    out[i] = out[i] + 1.0\n")
    spec = _spec(fn, "kbarrier")
    nd = NdRange(Range(32), Range(8))
    args = (np.zeros(32), np.random.default_rng(3).random(32))
    assert prove_exact(fn, nd, args) is None
    clear_plan_caches()
    hot = _outcome(spec, nd, args, "compiled")
    assert get_plan(spec, nd, mode="compiled").describe()[
        "validated_by"] == "static"
    assert hot == _outcome(spec, nd, args, "item")


@pytest.mark.parametrize("body, fragment", [
    # another item's slot, written before the barrier, read after it
    ("    out[i] = src[i]\n"
     "    yield item.barrier()\n"
     "    src[i] = out[np.minimum(i + 1, 31)]\n", "written"),
    ("    if i >= 30:\n"
     "        return\n"
     "    yield item.barrier()\n"
     "    out[i] = 1.0\n", "not batchable"),
    ("    if src[i] > 0.5:\n"
     "        yield item.barrier()\n"
     "    out[i] = 1.0\n", "not batchable"),
], ids=["read across the barrier", "guard return", "barrier under if"])
def test_static_pass_refuses_barrier_hazards(body, fragment):
    fn = _barrier_kernel(body)
    args = (np.zeros(32), np.zeros(32))
    for sites in (None, {}):
        why = prove_exact(fn, NdRange(Range(32), Range(8)), args,
                          sites=sites)
        assert why is not None and fragment in why, why


#: (body after ``v0 = src[i]``, src dtype, reason fragment): each is
#: one hazard the static pass must refuse
_HAZARDS = {
    "weak int x float32": ("out[i] = i * np.float32(0.5)", "f4",
                           "dtype divergence"),
    "power": ("out[i] = v0 ** 2", "f8", "`**`"),
    "exp": ("out[i] = np.exp(v0)", "f8", "np.exp"),
    "mixed min": ("out[i] = min(v0, np.float64(0.25))", "f4",
                  "dtype divergence"),
    "mixed max": ("out[i] = max(v0, np.float64(0.25))", "f4",
                  "dtype divergence"),
    "float min": ("out[i] = min(v0, 0.25)", "f8", "NaN"),
    "python zero division": ("out[i] = v0 + 1.0 / s", "f8", "ZeroDivision"),
    "cross-lane store": ("out[i % 4] = v0", "f8", "written"),
    "data-indexed store": ("out[idx[i]] = v0", "f8", "written"),
    "read of a written buffer": (
        "out[i] = out[np.minimum(i + 1, n - 1)] + v0", "f8", "written"),
    "python int into int32": ("iout = idx\n    iout[i] = i * 100000000",
                              "f8", "OverflowError"),
    "unbounded python int into int64": ("src[i] = n", "i8", "OverflowError"),
    "shift out of int64": ("src[i] = (i << 31) << 31", "i8", "leave int64"),
    "product out of int64 into float": (
        "out[i] = i * 3037000500 * 3037000500 * 1.0", "f8", "leave int64"),
    "unbounded python int and a lane id": ("src[i] = i + n", "i8",
                                           "leave int64"),
    "python int through a batched select": (
        "src[i] = (n if s > 0.0 else 0) * 3037000500 * 3037000500", "i8",
        "leave int64"),
    "float into int32": ("idx[i] = v0", "f8", "integer buffer"),
    "bool arithmetic": ("out[i] = (v0 < 1.0) + (v0 > 0.0)", "f8",
                        "boolean"),
    "in-place update of an alias": ("w = v0 + 1.0\n    u = w\n    u += 1.0"
                                    "\n    out[i] = w", "f8", "alias"),
    "in-place update of an id": ("k = item.get_global_linear_id()\n"
                                 "    k += 1\n    out[i] = v0 + k", "f8",
                                 "index table"),
}


def _hazard_kernel(body):
    return _make_kernel(
        "def kfuzz(item, out, src, idx, n, s):\n"
        "    i = item.get_global_linear_id()\n"
        "    if i >= n:\n"
        "        return\n"
        "    v0 = src[i]\n"
        f"    {body}\n")


@pytest.mark.parametrize("hazard", sorted(_HAZARDS))
def test_static_pass_refuses_hazard(hazard):
    body, src_dt, fragment = _HAZARDS[hazard]
    fn = _hazard_kernel(body)
    args = (np.zeros(40), np.ones(40, src_dt), np.zeros(40, np.int32), 40,
            1.0)
    why = prove_exact(fn, NdRange(Range(64), Range(16)), args)
    assert why is not None and fragment in why, why


def test_static_pass_refuses_barriers_tiles_and_old_numpy(monkeypatch):
    nd = NdRange(Range(32), Range(8))
    tile_fn = _make_kernel(
        "def kfuzz(item, out, tile):\n"
        "    t = item.get_local_id(0)\n"
        "    tile[t] = 1.0\n"
        "    out[item.get_global_linear_id()] = tile[t]\n")
    why = prove_exact(tile_fn, nd, (np.zeros(32), LocalAccessor((8,),
                                                                np.float64)))
    assert "LocalAccessor" in why
    barrier_fn = _make_kernel(
        "def kfuzz(item, out, tile):\n"
        "    t = item.get_local_id(0)\n"
        "    tile[t] = 1.0\n"
        "    yield item.barrier()\n"
        "    out[item.get_global_linear_id()] = tile[(t + 1) % 8]\n")
    assert "LocalAccessor" in prove_exact(
        barrier_fn, nd, (np.zeros(32), LocalAccessor((8,), np.float64)))
    exact = _hazard_kernel("out[i] = v0 * 2.0 + s")
    args = (np.zeros(40), np.ones(40), np.zeros(40, np.int32), 40, 1.0)
    assert prove_exact(exact, NdRange(Range(64), Range(16)), args) is None
    monkeypatch.setattr(np, "__version__", "1.26.4")
    assert "numpy 1.26.4 < 2.0" in prove_exact(
        exact, NdRange(Range(64), Range(16)), args)


@pytest.mark.parametrize("body, items, exact", [
    ("iout[i] = i * i * i", 64, True),
    ("iout[i] = i * i * i", 2 ** 22, False),
    ("iout[i] = (i << 31) << 31", 2, True),
    ("iout[i] = -abs(i - 5) // 3 + i % 5 + (i & 7 | 3)", 64, True),
    ("out[i] = i / 3", 64, True),
    ("out[i] = i / 3", 2 ** 54, False),
    ("out[i] = 1.0 if i < 0.5 else 0.0", 2 ** 54, False),
    ("out[i] = i", 2 ** 60, False),
    ("iout[i] = np.minimum(i, np.int32(5))", 64, True),
    ("iout[i] = np.minimum(i, np.int32(5))", 2 ** 32, False),
])
def test_static_pass_bounds_python_int_ids(body, items, exact):
    """Lane ids are unbounded Python ints per item but wrapping ``intp``
    batched: a proof needs bounds from the launch shape that keep every
    Python int inside ``intp`` (and inside 2**53 where it meets a
    float, or the narrower type it runs in)."""
    fn = _make_kernel("def kfuzz(item, out, iout):\n"
                      "    i = item.get_global_linear_id()\n"
                      f"    {body}\n")
    why = prove_exact(fn, NdRange(Range(items), Range(1)),
                      (np.zeros(64), np.zeros(64, np.int64)))
    assert (why is None) == exact, why


def test_aliased_relaunch_of_a_proven_signature_is_not_trusted():
    """Buffer overlap is part of the launch signature: a second launch
    of a statically proven plan with aliased buffers is not covered by
    the first proof, and leaves the interpreter's bytes."""
    fn = _make_kernel(
        "def kfuzz(item, out, src):\n"
        "    i = item.get_global_linear_id()\n"
        "    out[i] = src[np.maximum(i - 1, 0)] + 1.0\n")
    spec = _spec(fn, "kalias")
    nd = NdRange(Range(32), Range(8))
    clear_plan_caches()
    run_nd_range(spec, nd, (np.zeros(32), np.zeros(32)), mode="compiled")
    plan = get_plan(spec, nd, mode="compiled")
    assert plan.describe()["validated_by"] == "static"
    buf, expected = np.arange(34.0), np.arange(34.0)
    run_nd_range(spec, nd, (buf[2:], buf[:32]), mode="compiled")
    run_nd_range(spec, nd, (expected[2:], expected[:32]), mode="item")
    assert buf.tobytes() == expected.tobytes()
    # the aliased signature went to the shadow run, which caught it
    assert plan.describe()["fallback_reason"] == \
        "batched result diverged from the interpreter"


def test_static_pass_refuses_overlapping_buffers():
    fn = _make_kernel(
        "def kfuzz(item, out, src):\n"
        "    i = item.get_global_linear_id()\n"
        "    out[i] = src[i] + 1.0\n")
    nd = NdRange(Range(32), Range(8))
    buf = np.zeros(33)
    assert prove_exact(fn, nd, (buf[:32], buf[1:])) is not None
    assert prove_exact(fn, nd, (np.zeros(32), np.zeros(32))) is None
