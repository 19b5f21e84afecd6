"""Unit tests for the compiled (batched-numpy) execution tier.

The tier's contract has three parts, each exercised here:

* **translation** — which kernels lift into a batched program and,
  for the ones that do not, a precise reason;
* **execution** — batched results are byte-identical to the per-item
  interpreter, barrier generators split into array phases, and the
  plan's first compiled launch shadow-validates before promoting;
* **fallback** — every ineligible or diverging kernel lands back on its
  reference interpreter form with the ``vectorize.fallback`` metric
  incremented and the output buffers exactly as the interpreter left
  them.

All kernels live in this file (module scope) so the translator's
source read — the file's ``linecache`` lines, sliced by the kernel's
code positions — sees real source: its one hard environmental
requirement.  The lane runtime's contracts (interpreter lane order,
no lattice on a certified plan) are pinned at the end.
"""

from __future__ import annotations

import ast
import inspect
import math
import pkgutil
import textwrap
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.altis
from repro.sycl import (
    KernelKind,
    KernelSpec,
    NdRange,
    Queue,
    Range,
    compile_batched,
    eligible_form,
    vectorize,
    vectorize_disabled,
    vectorize_enabled,
)
from repro.sycl.certificates import CertificateStore
from repro.sycl.executor import (
    _nd_lattice,
    clear_execution_caches,
    execution_cache_info,
    run_nd_range,
)
from repro.sycl.plan import (
    clear_plan_caches,
    get_plan,
    plan_cache_info,
    using_certificate_store,
)
from repro.sycl.vectorize import _item_lanes
from repro.trace.metrics import registry


@pytest.fixture(autouse=True)
def _fresh_plans():
    clear_plan_caches()
    yield
    clear_plan_caches()


def _fallback_count() -> float:
    return registry.counter("vectorize.fallback").value


# ---------------------------------------------------------------------------
# Dialect kernels (module scope: the translator reads their source)
# ---------------------------------------------------------------------------

def _scale_item(item, out, src, n, factor):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = src[i] * factor + 1.0


def _select_item(item, out, src, n, threshold):
    i = item.get_global_linear_id()
    if i >= n:
        return
    v = src[i]
    out[i] = v if v < threshold else threshold


def _branch_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    if src[i] > 0.5:
        out[i] = src[i] * 2.0
    else:
        out[i] = -src[i]


def _stencil_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    left = src[np.maximum(i - 1, 0)]
    right = src[np.minimum(i + 1, n - 1)]
    out[i] = left + right - 2.0 * src[i]


def _loop_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    for k in range(3):
        acc = acc + src[i] * k
    out[i] = acc


def _min_builtin_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = min(src[i], 1.0)


def _math_item(item, out, src, n):
    # math.* lowers to numpy through a float() promotion, so the
    # interpreter's Python-double arithmetic and the batched float64
    # lanes are IEEE-identical
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = math.sqrt(float(src[i]) + 1.0) * math.fabs(float(src[i]) - 0.5)


def _while_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    k = 0
    while k < 3:
        acc = acc + src[i] * k
        k = k + 1
    out[i] = acc


def _break_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    for k in range(3):
        if k == 2:
            break
        acc = acc + src[i]
    out[i] = acc


def _lane_trip_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    for k in range(i):
        acc = acc + 1.0
    out[i] = acc


def _len_builtin_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = src[i] * len(src)


def _tile_item(item, out, src, tile, n, block):
    # LocalAccessor tile threaded through a barrier-per-iteration loop:
    # the compiled tier shadows it as a per-group (groups, block) array
    t = item.get_local_id(0)
    i = item.get_global_linear_id()
    tile[t] = src[i] * 2.0
    yield item.barrier()
    acc = 0.0
    for k in range(block):
        acc = acc + tile[k]
        yield item.barrier()
    out[i] = acc + tile[t]


def _barrier_item(item, data, scratch, n):
    # phase 2 reads only within the lane's own work-group: a barrier
    # synchronizes one group, so cross-group reads would be racy in both
    # the interpreter and the batched program
    i = item.get_global_linear_id()
    if i < n:
        scratch[i] = data[i] * 2.0
    yield item.barrier()
    base = i - item.get_local_id(0)
    if i < n:
        data[i] = scratch[base] + scratch[i]


def _accumulate_item(item, out, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[0] += 1.0


def _spec(fn, name="k", **kw):
    return KernelSpec(name=name, kind=KernelKind.ND_RANGE, item_fn=fn, **kw)


def _nd(n=64, wg=16):
    return NdRange(Range(n), Range(wg))


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------

def test_eligible_forms():
    for fn in (_scale_item, _select_item, _branch_item, _stencil_item,
               _loop_item, _min_builtin_item, _math_item):
        assert eligible_form(_spec(fn)) == ("item", None)
    form, reason = eligible_form(
        KernelSpec(name="v", kind=KernelKind.ND_RANGE, vector_fn=_scale_item))
    assert (form, reason) == (None, "no item_fn")


def test_ineligible_reasons_are_precise():
    form, reason = eligible_form(_spec(_while_item))
    assert form is None and "while loop" in reason
    form, reason = eligible_form(_spec(_break_item))
    assert form is None and "break/continue" in reason
    form, reason = eligible_form(_spec(_lane_trip_item))
    assert form is None and "launch-invariant" in reason and "'i'" in reason
    form, reason = eligible_form(_spec(_len_builtin_item))
    assert form is None and "len()" in reason


def test_no_vectorize_feature_opts_out():
    spec = _spec(_scale_item, features={"no_vectorize": True})
    form, reason = eligible_form(spec)
    assert form is None and "no_vectorize" in reason


def test_reference_form_only():
    """A kernel with both forms is judged on item_fn alone: the
    compiled program must validate against the exact path a
    vectorize-disabled run would take."""
    spec = KernelSpec(name="both", kind=KernelKind.ND_RANGE,
                      item_fn=_while_item, vector_fn=_scale_item)
    form, reason = eligible_form(spec)
    assert form is None and reason.startswith("item_fn:")


# ---------------------------------------------------------------------------
# Compiled execution: byte-identity, plan tier, stats
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn", [_scale_item, _select_item, _branch_item,
                                _stencil_item, _loop_item, _min_builtin_item,
                                _math_item])
def test_compiled_matches_interpreter_bitwise(fn):
    n = 50  # not a multiple of the work-group: exercises the guard
    rng = np.random.default_rng(3)
    src = rng.random(n).astype(np.float32)
    args = {
        _scale_item: lambda o: (o, src, n, np.float32(1.5)),
        _select_item: lambda o: (o, src, n, np.float32(0.5)),
        _branch_item: lambda o: (o, src, n),
        _stencil_item: lambda o: (o, src, n),
        _loop_item: lambda o: (o, src, n),
        _min_builtin_item: lambda o: (o, src, n),
        _math_item: lambda o: (o, src, n),
    }[fn]
    ref = np.zeros(n, dtype=np.float32)
    run_nd_range(_spec(fn), _nd(64), args(ref), mode="item")
    out = np.zeros(n, dtype=np.float32)
    spec = _spec(fn)
    run_nd_range(spec, _nd(64), args(out), mode="compiled")  # validation run
    stats = run_nd_range(spec, _nd(64), args(out), mode="compiled")  # hot
    assert out.tobytes() == ref.tobytes()
    assert stats.path == "compiled"
    plan = get_plan(spec, _nd(64), mode="compiled")
    assert plan.path == "compiled"
    assert plan.compiled is not None and plan.compiled.validated


def test_each_argument_signature_is_validated(tmp_path):
    """One plan, two argument dtypes: the float64 launch must not ride
    on the float32 launch's proof.  Each signature is shadow-validated
    on its own arguments and gets its own certificate."""
    spec = _spec(_scale_item)

    def launch(dtype):
        out = np.zeros(64, dtype)
        run_nd_range(spec, _nd(), (out, np.ones(64, dtype), 64, dtype(2.0)),
                     mode="compiled")
        return out

    with using_certificate_store(CertificateStore(tmp_path)) as store:
        for dtype in (np.float32, np.float64, np.float32, np.float64):
            assert np.all(launch(dtype) == 3.0)
    info = plan_cache_info()
    assert info["compiles"] == 1
    assert info["validated_by"] == {"shadow": 2}
    assert store.writes == 2
    ck = get_plan(spec, _nd(), mode="compiled").compiled
    assert {sig[0][1] for sig in ck.proofs} == {"[('', '<f4')]",
                                                "[('', '<f8')]"}


def test_cfd_fp64_is_validated_on_its_own_arguments():
    """CFD FP32 and FP64 share one compiled plan; each precision is
    proven separately in one process."""
    from repro.harness.runner import run_functional

    assert run_functional("CFD FP32", mode="compiled").verified
    assert run_functional("CFD FP64", mode="compiled").verified
    info = plan_cache_info()
    assert info["compiles"] == 1
    assert info["validated_by"] == {"shadow": 2}


def test_plan_cache_reports_tiers():
    run_nd_range(_spec(_scale_item, name="a"), _nd(),
                 (np.zeros(64, np.float32), np.ones(64, np.float32), 64,
                  np.float32(2.0)), mode="compiled")
    run_nd_range(_spec(_while_item, name="b"), _nd(),
                 (np.zeros(64, np.float32), np.ones(64, np.float32), 64),
                 mode="compiled")
    tiers = plan_cache_info()["tiers"]
    assert tiers["compiled"]["count"] >= 1
    assert tiers["compiled"]["fallbacks"] == {}
    # the while-loop kernel's fallback plan carries its demotion reason
    assert tiers["item"]["count"] >= 1
    assert "while loop" in tiers["item"]["fallbacks"]["b"]


# ---------------------------------------------------------------------------
# Barrier-phase splitting
# ---------------------------------------------------------------------------

def test_barrier_generator_splits_into_phases():
    n = 32
    data_ref = np.arange(n, dtype=np.float32)
    scratch_ref = np.zeros(n, dtype=np.float32)
    run_nd_range(_spec(_barrier_item), _nd(n, 8),
                 (data_ref, scratch_ref, n), mode="item")

    spec = _spec(_barrier_item)
    data = np.arange(n, dtype=np.float32)
    scratch = np.zeros(n, dtype=np.float32)
    run_nd_range(spec, _nd(n, 8), (data, scratch, n), mode="compiled")
    assert data.tobytes() == data_ref.tobytes()

    data2 = np.arange(n, dtype=np.float32)
    scratch2 = np.zeros(n, dtype=np.float32)
    stats = run_nd_range(spec, _nd(n, 8), (data2, scratch2, n),
                         mode="compiled")
    assert data2.tobytes() == data_ref.tobytes()
    assert stats.path == "compiled"
    # one barrier -> one phase boundary, reported in interpreter units
    # (phases x work-groups) so profiles stay comparable across tiers
    assert stats.barrier_phases == 1 * (n // 8)
    assert stats.gen_advances == 2


def test_local_tile_with_barrier_loop():
    """A LocalAccessor tile written and read across barrier phases —
    including a barrier inside a static loop — batches bitwise: the
    compiled tier shadows the tile as one per-group array and the loop
    contributes one array phase per iteration."""
    from repro.sycl.buffer import LocalAccessor

    n, wg = 32, 8
    rng = np.random.default_rng(7)
    src = rng.random(n).astype(np.float32)
    tile = LocalAccessor((wg,), np.float32)
    spec = _spec(_tile_item)
    assert eligible_form(spec) == ("item", None)

    ref = np.zeros(n, dtype=np.float32)
    run_nd_range(spec, _nd(n, wg), (ref, src, tile, n, wg), mode="item")
    out = np.zeros(n, dtype=np.float32)
    run_nd_range(spec, _nd(n, wg), (out, src, tile, n, wg), mode="compiled")
    stats = run_nd_range(spec, _nd(n, wg), (out, src, tile, n, wg),
                         mode="compiled")
    assert out.tobytes() == ref.tobytes()
    assert stats.path == "compiled"
    # staging barrier + one per loop iteration, in interpreter units
    assert stats.barrier_phases == (1 + wg) * (n // wg)


# ---------------------------------------------------------------------------
# Fallback: static, runtime, and validation-mismatch demotion
# ---------------------------------------------------------------------------

def test_static_fallback_runs_interpreter_and_counts():
    n = 64
    src = np.ones(n, dtype=np.float32)
    ref = np.zeros(n, dtype=np.float32)
    run_nd_range(_spec(_while_item), _nd(), (ref, src, n), mode="item")
    before = _fallback_count()
    out = np.zeros(n, dtype=np.float32)
    spec = _spec(_while_item)
    stats = run_nd_range(spec, _nd(), (out, src, n), mode="compiled")
    assert out.tobytes() == ref.tobytes()
    assert stats.path == "item"
    assert _fallback_count() == before + 1
    # warm relaunches reuse the demoted plan: no re-counting
    run_nd_range(spec, _nd(), (out, src, n), mode="compiled")
    assert _fallback_count() == before + 1


def test_runtime_fallback_on_unsupported_argument():
    """A statically eligible kernel whose *arguments* the batched
    runtime cannot represent demotes at bind time — before anything
    executes — and the interpreter result stands."""
    n = 64
    src = np.ones(n, dtype=np.float32)
    factor = [2.0]  # a list argument: bind() refuses it

    def by_mode(mode):
        out = np.zeros(n, dtype=np.float32)
        spec = _spec(_list_factor_item)
        stats = run_nd_range(spec, _nd(), (out, src, n, factor), mode=mode)
        return out, stats

    ref, _ = by_mode("item")
    before = _fallback_count()
    clear_plan_caches()
    out, stats = by_mode("compiled")
    assert out.tobytes() == ref.tobytes()
    assert stats.path == "item"
    assert _fallback_count() == before + 1


def _list_factor_item(item, out, src, n, factor):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = src[i] * factor[0]


def test_validation_mismatch_demotes_with_interpreter_result():
    """Cross-lane accumulation translates but cannot batch correctly;
    shadow validation catches the divergence, the interpreter result is
    what lands in the buffer, and the plan permanently demotes."""
    n = 16
    assert eligible_form(_spec(_accumulate_item))[0] == "item"
    spec = _spec(_accumulate_item)
    out = np.zeros(4, dtype=np.float32)
    before = _fallback_count()
    stats = run_nd_range(spec, _nd(n, 4), (out, n), mode="compiled")
    assert out[0] == n  # interpreter semantics, not last-writer-wins
    assert stats.path == "item"
    assert _fallback_count() == before + 1
    stats = run_nd_range(spec, _nd(n, 4), (out, n), mode="compiled")
    assert out[0] == 2 * n
    assert stats.path == "item"
    plan = get_plan(spec, _nd(n, 4), mode="compiled")
    assert plan.path == "item" and plan.compiled is None


# ---------------------------------------------------------------------------
# Process-wide disable + Queue integration
# ---------------------------------------------------------------------------

def test_vectorize_disabled_round_trip():
    n = 64
    src = np.linspace(0, 1, n, dtype=np.float32)
    spec = _spec(_scale_item)
    on = np.zeros(n, dtype=np.float32)
    run_nd_range(spec, _nd(), (on, src, n, np.float32(3.0)), mode="compiled")
    run_nd_range(spec, _nd(), (on, src, n, np.float32(3.0)), mode="compiled")
    with vectorize_disabled():
        off = np.zeros(n, dtype=np.float32)
        run_nd_range(spec, _nd(), (off, src, n, np.float32(3.0)),
                     mode="compiled")
        plan = get_plan(spec, _nd(), mode="compiled")
        assert plan.path == "item"  # disabled: plans never compile batched
    assert on.tobytes() == off.tobytes()
    assert compile_batched(spec, _nd())[0] is not None  # re-enabled


def test_queue_compiled_default_mode():
    q = Queue("rtx2080", default_mode="compiled")
    n = 64
    src = np.full(n, 2.0, dtype=np.float32)
    out = np.zeros(n, dtype=np.float32)
    spec = _spec(_scale_item)
    q.parallel_for(_nd(), spec, out, src, n, np.float32(2.0))
    q.parallel_for(_nd(), spec, out, src, n, np.float32(2.0))
    assert np.all(out == 5.0)
    assert q.counters.path_counts.get("compiled", 0) >= 1


# ---------------------------------------------------------------------------
# Lane tables: the interpreter's iteration order, bit for bit
# ---------------------------------------------------------------------------

@st.composite
def _launch_shapes(draw):
    ndim = draw(st.integers(min_value=1, max_value=3))
    local = tuple(draw(st.lists(st.integers(1, 4), min_size=ndim,
                                max_size=ndim)))
    groups = draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim))
    return tuple(g * l for g, l in zip(groups, local)), local


def _row_major(point, dims) -> int:
    linear = 0
    for p, d in zip(point, dims):
        linear = linear * d + p
    return linear


def _assert_lane(arr, expected):
    assert arr.dtype == np.intp
    assert arr.flags.writeable is False
    assert arr.tolist() == list(expected)


@settings(max_examples=60, deadline=None)
@given(shape=_launch_shapes())
def test_lane_tables_follow_interpreter_order(shape):
    """The compiled tier's bitwise contract: lane ``k`` is the ``k``-th
    work-item the interpreter visits (``_nd_lattice`` order)."""
    global_dims, local_dims = shape
    group_dims = tuple(g // l for g, l in zip(global_dims, local_dims))
    rows = [(gid, glob, lid)
            for gid, coords in _nd_lattice(global_dims, local_dims)
            for glob, lid in coords]
    lanes = _item_lanes(global_dims, local_dims)
    assert lanes["n"] == len(rows)
    for d in range(len(global_dims)):
        _assert_lane(lanes["group"][d], [r[0][d] for r in rows])
        _assert_lane(lanes["global"][d], [r[1][d] for r in rows])
        _assert_lane(lanes["local"][d], [r[2][d] for r in rows])
    for name, col, dims in (("group_linear", 0, group_dims),
                            ("global_linear", 1, global_dims),
                            ("local_linear", 2, local_dims)):
        _assert_lane(lanes[name], [_row_major(r[col], dims) for r in rows])


# ---------------------------------------------------------------------------
# Source read: what inspect.getsource returns, without the tokenizer
# ---------------------------------------------------------------------------

_lambda_kernel = lambda item, out: out.fill(1.0)  # noqa: E731
_multiline_lambda_kernel = (
    lambda item, out:
        out.fill(2.0))


def _identity(fn):
    return fn


@_identity
def _decorated_item(item, out):
    out[item.get_global_linear_id()] = 1.0


def _dead_tail_item(item, out):
    # the statement after the return compiles to no instruction, so
    # only the indentation rule brings it into the source read
    i = item.get_global_linear_id()
    out[i] = 1.0
    return
    out[i] = 2.0


def _defined_functions(module):
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield from (f for f in vars(obj).values()
                        if inspect.isfunction(f))
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield obj


def _read(read, fn) -> str:
    try:
        return ast.dump(ast.parse(textwrap.dedent(read(fn))))
    except (OSError, SyntaxError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_source_read_matches_inspect_getsource():
    modules = [import_module(f"repro.altis.{m.name}")
               for m in pkgutil.iter_modules(repro.altis.__path__)]
    modules.append(import_module(__name__))
    functions = [f for m in modules for f in _defined_functions(m)]
    assert len(functions) > 100
    for fn in functions:
        assert (_read(vectorize._function_source, fn)
                == _read(inspect.getsource, fn)), fn.__qualname__


def _exec_kernel():
    namespace = {}
    exec("def kexec(item, out):\n    out[0] = 1.0\n", namespace)
    return namespace["kexec"]


def _closure_kernel():
    value = 2.0

    def closure_item(item, out):
        out[0] = value
    return closure_item


@pytest.mark.parametrize("fn, reason", [
    (_lambda_kernel, "not a plain function definition"),
    (_multiline_lambda_kernel,
     "source does not parse standalone (invalid syntax (<unknown>, line 1))"),
    (_decorated_item, "decorated kernels are not traceable"),
    (_dead_tail_item, "early return outside a top-level guard"),
    (_exec_kernel(), "source unavailable (could not get source code)"),
    (_closure_kernel(), "kernel closes over free variables"),
], ids=["lambda", "multiline-lambda", "decorated", "dead-tail", "exec",
        "closure"])
def test_ineligibility_reasons_survive_the_source_read(fn, reason,
                                                       monkeypatch):
    assert vectorize.translate.__wrapped__(fn) == (None, reason)
    monkeypatch.setattr(vectorize, "_CODE_POSITIONS", False)
    assert vectorize.translate.__wrapped__(fn) == (None, reason)
    monkeypatch.setattr(vectorize, "_function_source", inspect.getsource)
    assert vectorize.translate.__wrapped__(fn) == (None, reason)


def test_source_read_without_code_positions_uses_inspect(monkeypatch):
    # Python 3.10 code objects have no ``co_positions``: the read must
    # hand every kernel to ``inspect.getsource`` instead of failing
    assert vectorize._CODE_POSITIONS == hasattr(_scale_item.__code__,
                                                "co_positions")
    calls = []

    def getsource(fn):
        calls.append(fn)
        return real(fn)

    real = inspect.getsource
    monkeypatch.setattr(vectorize, "_CODE_POSITIONS", False)
    monkeypatch.setattr(vectorize.inspect, "getsource", getsource)
    assert vectorize._function_source(_scale_item) == real(_scale_item)
    assert calls == [_scale_item]
    batched, reason = vectorize.translate.__wrapped__(_scale_item)
    assert batched is not None and reason is None


# ---------------------------------------------------------------------------
# A certified compiled plan never builds the interpreter's lattice
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not vectorize_enabled(),
                    reason="certificates cover the compiled tier")
def test_certified_plan_builds_no_lattice(tmp_path):
    n = 50
    src = np.linspace(0, 1, n, dtype=np.float32)
    spec = _spec(_scale_item)

    def launch():
        clear_plan_caches()
        clear_execution_caches()
        out = np.zeros(n, dtype=np.float32)
        run_nd_range(spec, _nd(), (out, src, n, np.float32(1.5)),
                     mode="compiled")
        lattice = execution_cache_info()["nd_lattice"]
        plan = get_plan(spec, _nd(), mode="compiled")
        return out, plan.describe()["validated_by"], lattice

    with using_certificate_store(CertificateStore(tmp_path)) as store:
        first, how, lattice = launch()
        assert how == "shadow" and store.writes == 1
        assert lattice.misses == 1  # the shadow-validation interpreter run
        second, how, lattice = launch()
        assert how == "certificate" and store.hits == 1
        assert lattice.hits + lattice.misses == 0
    assert second.tobytes() == first.tobytes()
