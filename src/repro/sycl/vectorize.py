"""The compiled execution tier: batched numpy programs from kernel bodies.

The per-item interpreter (:mod:`repro.sycl.executor`) pays a
Python-level cost per work-item; warm launch plans remove the
*dispatch* cost but not the loop body itself.  This module removes the
body cost for the (large) class of kernels whose per-item code is
straight-line array arithmetic: it lifts the ``item_fn`` **source**
into a batched numpy program evaluated once per launch — or once per
barrier phase — over per-lane index arrays that numpy index arithmetic
lays out in the interpreter's iteration order (the interpreter's
per-item lattice is never built for them).  The restructuring mirrors
how the paper's optimized-SYCL variants (and the CRK-HACC / Reguly
portability studies) close the gap to the hardware: express the kernel
over the whole index space instead of per-item control flow.

How a kernel becomes a batched program
--------------------------------------

:func:`translate` reads the kernel's source from ``linecache``, sliced
by the line positions of its code objects (no tokenizer pass, see
:func:`_function_source`), parses it with ``ast`` and rewrites it into a
new function ``<name>__batched`` taking ``(__lanes__, <index>, *args)``:

* every work-item is a **lane**; the ``<index>`` argument becomes a
  :class:`_BatchItem` whose accessors return per-lane ``np.intp``
  arrays in exact interpreter iteration order;
* ndarray arguments are wrapped in :class:`_BatchArray`, whose
  ``__getitem__`` gathers and ``__setitem__`` scatters under the
  current lane mask;
* a top-level ``if cond: return`` guard becomes ``__lanes__.refine``
  (dead lanes never store);
* any other ``if`` becomes a pair of masked regions — the condition is
  evaluated **once** into a temp, then the body runs under
  ``__lanes__.where(temp)`` and the else-arm under ``where_not`` —
  i.e. a ``select``-style conditional;
* ``x if c else y`` becomes ``np.where(c, x, y)``; ``and`` / ``or`` /
  ``not`` and chained comparisons become ``np.logical_*``;
* ``yield item.barrier(...)`` statements are kept verbatim, so a
  barrier kernel compiles to a batched *generator* whose resumptions
  are the array phases — barrier semantics survive as phase splits;
* ``for <name> in range(...)`` loops whose trip count is
  launch-invariant (constants, kernel scalar arguments, module
  globals, enclosing loop variables) unroll into one batched body
  execution per iteration — a barrier yield in the body becomes one
  array phase per iteration, matching the interpreter's schedule;
* ``LocalAccessor`` tiles become per-group ``(groups, *tile)`` shadow
  arrays (:class:`_BatchLocal`): every subscript is prefixed with the
  lane's group-linear id, so work-group locality survives batching;
* scalar builtins with an exact numpy lowering are rewritten in place:
  ``min``/``max`` → nested ``np.minimum``/``np.maximum``, ``float`` →
  ``np.float64``, ``abs`` stays, and ``math.*`` maps through
  :data:`_MATH_TO_NP` (``math.sqrt`` → ``np.sqrt`` …); an expression
  over literals only stays Python, so it keeps the interpreter's dtype.

Anything still outside this dialect — ``while`` loops, data-dependent
trip counts, ``break``/``continue``, remaining scalar builtins
(``len``/``sum``/``divmod`` …), calls into non-numpy modules,
non-constant slices, closures, value returns — makes the kernel
statically ineligible with a targeted reason.

Why this cannot change results
------------------------------

Static eligibility is necessary but not trusted: the first launch of
each argument signature (buffer dtypes, shapes and layouts, scalar
types) on a compiled plan runs the batched program on **copies** of
the buffers while the interpreter runs on the real ones, and compares
every output byte (:meth:`CompiledKernel.shadow_run` in
:meth:`~repro.sycl.plan.LaunchPlan.execute`).  Only a bitwise match
proves that signature for direct batched execution; any mismatch or
exception silently and permanently demotes the plan to the interpreter
path it was validated against.  Every fallback — static or runtime —
increments the ``vectorize.fallback`` counter and, when tracing is on,
emits a ``vectorize.fallback`` span, so tier coverage is observable in
``repro profile``.  With tracing on, each shadow validation runs inside
a ``vectorize.validate`` span.

A proof can outlive its process.  When a certificate store is installed
(:func:`repro.sycl.plan.using_certificate_store`; the ``suite`` and
``run`` subcommands install one unless given ``--no-cache``), a
bitwise match writes a certificate keyed by the code fingerprint, numpy
version, host (Python, machine, numpy's CPU features), both code
objects, the launch shape and the argument signature.  A later process
whose first launch finds an intact certificate for the same key skips
the shadow run and executes the batched program directly
(``validated_by == "certificate"``); a missing, stale or damaged
certificate means full shadow validation, exactly as without a store.
Demotions are never persisted.  The ``vectorize.certificate.{hits,
misses,writes,rejects}`` counters show what the store did.
"""

from __future__ import annotations

import ast
import copy as _copy
import inspect
import linecache
import os
import re
import textwrap
import threading
import types
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from ..trace.metrics import registry as _metrics
from ..trace.spans import current_tracer
from .buffer import LocalAccessor
from .kernel import KernelKind, KernelSpec
from .ndrange import BarrierToken, FenceSpace, NdRange

__all__ = [
    "VectorizeFallback",
    "CompiledKernel",
    "compile_batched",
    "eligible_form",
    "translate",
    "vectorize_enabled",
    "vectorize_disabled",
    "note_fallback",
    "vectorize_cache_info",
    "clear_vectorize_caches",
]


class VectorizeFallback(Exception):
    """A batched program hit a construct it cannot execute.

    Raised before any real buffer is touched (argument wrapping, proxy
    misuse); the plan layer catches it and demotes to the interpreter.
    """


class _Ineligible(Exception):
    """Static analysis rejection; the message is the reason."""


# ---------------------------------------------------------------------------
# Process-wide enable switch
# ---------------------------------------------------------------------------

#: ``REPRO_VECTORIZE=0`` force-disables the compiled tier for the whole
#: process — the CI matrix leg that keeps the interpreter reference path
#: under first-class coverage (not only shadow-validation) uses it.
_ENABLED = os.environ.get("REPRO_VECTORIZE", "1").strip().lower() not in (
    "0", "false", "off", "no")


def vectorize_enabled() -> bool:
    """Whether eligible kernels may take the compiled tier."""
    return _ENABLED


@contextmanager
def vectorize_disabled():
    """Force the interpreter tiers for a block.

    Process-wide switch for benchmarks and the on/off differential
    suite; plans compiled inside the block carry the flag in their
    cache key, so a disabled run never reuses a compiled plan.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def note_fallback(kernel_name: str, reason: str, stage: str) -> None:
    """Record one compiled-tier fallback (static or runtime).

    Always increments the ``vectorize.fallback`` counter; with a tracer
    installed also emits a zero-width ``vectorize.fallback`` span
    carrying the kernel, the reason, and the stage, so ``repro
    profile`` shows exactly which kernels missed the tier and why.
    """
    _metrics.counter("vectorize.fallback").inc()
    tracer = current_tracer()
    if tracer is not None:
        tracer.complete("vectorize.fallback", "vectorize", tracer.now_us(),
                        0.0, kernel=kernel_name, reason=reason, stage=stage)


# ---------------------------------------------------------------------------
# Static analysis + AST rewrite
# ---------------------------------------------------------------------------

_INDEX_METHODS = frozenset({
    "get_global_id", "get_local_id", "get_group", "get_global_linear_id",
    "get_local_linear_id", "get_global_range", "get_local_range",
    "get_group_range",
})

_SCALAR_BUILTINS = frozenset({
    "int", "bool", "len", "range", "round", "sum", "any", "all",
    "sorted", "enumerate", "zip", "map", "filter", "divmod", "pow",
})

#: ``math.*`` functions with a bitwise-compatible numpy lowering.  Note
#: the compatibility caveat: for float32 operands the interpreter
#: computes through float64 (``math`` coerces) and the batched program
#: directly in float32 — identical for the correctly-rounded functions
#: (sqrt, fabs, floor, ceil, trunc, copysign) and for float64 kernels
#: throughout, ulp-divergent otherwise.  The shadow validator demotes
#: any kernel where the two disagree, so the mapping is safe to keep
#: liberal.
_MATH_TO_NP = {
    "sqrt": "sqrt", "exp": "exp", "expm1": "expm1", "log": "log",
    "log1p": "log1p", "log2": "log2", "log10": "log10", "fabs": "fabs",
    "floor": "floor", "ceil": "ceil", "trunc": "trunc", "sin": "sin",
    "cos": "cos", "tan": "tan", "asin": "arcsin", "acos": "arccos",
    "atan": "arctan", "atan2": "arctan2", "sinh": "sinh", "cosh": "cosh",
    "tanh": "tanh", "hypot": "hypot", "copysign": "copysign",
    "fmod": "fmod", "pow": "power",
}

_CMP_OK = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _lanes_call(method: str, args: list) -> ast.Call:
    return ast.Call(
        func=ast.Attribute(value=ast.Name("__lanes__", ctx=ast.Load()),
                           attr=method, ctx=ast.Load()),
        args=args, keywords=[])


def _np_call(fn: str, args: list) -> ast.Call:
    return ast.Call(
        func=ast.Attribute(value=ast.Name("__vec_np__", ctx=ast.Load()),
                           attr=fn, ctx=ast.Load()),
        args=args, keywords=[])


def _literal_only(e) -> bool:
    """Whether ``e`` combines literals only (operators, comparisons,
    conditionals, builtin ``min``/``max``/``abs``): it is the same Python
    scalar in every lane."""
    if isinstance(e, ast.Constant):
        return True
    if isinstance(e, ast.BinOp):
        return _literal_only(e.left) and _literal_only(e.right)
    if isinstance(e, ast.UnaryOp):
        return _literal_only(e.operand)
    if isinstance(e, ast.BoolOp):
        return all(map(_literal_only, e.values))
    if isinstance(e, ast.Compare):
        return _literal_only(e.left) and all(map(_literal_only,
                                                 e.comparators))
    if isinstance(e, ast.IfExp):
        return all(map(_literal_only, (e.test, e.body, e.orelse)))
    if isinstance(e, ast.Call):
        return (isinstance(e.func, ast.Name) and not e.keywords
                and (e.func.id == "abs" and len(e.args) == 1
                     or e.func.id in ("min", "max") and len(e.args) >= 2)
                and all(map(_literal_only, e.args)))
    return False


class _Rewriter:
    """Rewrites one kernel body into the batched dialect, or raises
    :class:`_Ineligible` with the reason it cannot."""

    def __init__(self, index_name: str, glb: dict, is_generator: bool,
                 params: set):
        self.index = index_name
        self.glb = glb
        self.is_gen = is_generator
        self.params = params
        self.tmp_count = 0
        #: names bound inside the body — potentially lane-shaped, so a
        #: loop trip count may not depend on them (loop *targets* are
        #: uniform per-iteration scalars and deliberately excluded)
        self.assigned = set()

    def fail(self, reason: str):
        raise _Ineligible(reason)

    # -- statements --------------------------------------------------------

    def block(self, stmts, *, top: bool, predicated: bool,
              in_loop: bool = False) -> list:
        out = []
        for pos, s in enumerate(stmts):
            last = top and not in_loop and pos == len(stmts) - 1
            out.extend(self.stmt(s, top=top, predicated=predicated,
                                 last=last, in_loop=in_loop))
        if not out:
            out.append(ast.Pass())
        return out

    def stmt(self, s, *, top: bool, predicated: bool, last: bool,
             in_loop: bool = False) -> list:
        if isinstance(s, ast.Pass):
            return [s]
        if isinstance(s, ast.Expr):
            if isinstance(s.value, ast.Constant) and isinstance(
                    s.value.value, str):
                return [s]  # docstring
            if isinstance(s.value, ast.Yield):
                return [self.yield_stmt(s, top=top, predicated=predicated)]
            self.fail("expression statement with side effects")
        if isinstance(s, ast.Return):
            if s.value is not None:
                self.fail("kernels must not return a value")
            if last and not predicated:
                return []  # trailing bare return
            self.fail("early return outside a top-level guard")
        if isinstance(s, ast.Assign):
            return [self.assign(s, predicated=predicated)]
        if isinstance(s, ast.AugAssign):
            return [self.aug_assign(s, predicated=predicated)]
        if isinstance(s, ast.If):
            return self.if_stmt(s, top=top, predicated=predicated,
                                in_loop=in_loop)
        if isinstance(s, ast.For):
            return self.for_stmt(s, top=top, predicated=predicated)
        for cls, why in ((ast.While, "while loop"),
                         (ast.With, "with block"), (ast.Try, "try block"),
                         (ast.Raise, "raise"), (ast.Assert, "assert"),
                         (ast.AnnAssign, "annotated assignment"),
                         (ast.Delete, "del statement"),
                         (ast.FunctionDef, "nested function"),
                         (ast.ClassDef, "class definition")):
            if isinstance(s, cls):
                self.fail(f"{why} is not vectorizable")
        self.fail(f"unsupported statement {type(s).__name__}")

    def for_stmt(self, s: ast.For, *, top: bool, predicated: bool) -> list:
        """A ``for <name> in range(...)`` loop over a launch-invariant
        trip count.

        Every lane runs the same iterations (the trip count may only
        come from constants, kernel scalar arguments, module globals, or
        enclosing loop variables — all launch-invariant), so the loop
        unrolls at runtime into one batched body execution per
        iteration; a barrier yield inside the body becomes one array
        phase *per iteration*, which is exactly the interpreter's phase
        schedule.  ``break``/``continue`` make lanes diverge and stay
        ineligible — data-dependent exits are rewritten as masked
        accumulation (see the Mandelbrot escape iteration).
        """
        if predicated:
            self.fail("for loop inside a conditional (lane-divergent "
                      "trip count)")
        if s.orelse:
            self.fail("for/else is not vectorizable")
        if not isinstance(s.target, ast.Name):
            self.fail("loop target must be a plain name")
        it = s.iter
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and not it.keywords
                and 1 <= len(it.args) <= 3):
            self.fail("only `for <name> in range(...)` loops have a "
                      "static trip count")
        for arg in it.args:
            for node in ast.walk(arg):
                if isinstance(node, ast.Name) and (
                        node.id == self.index or node.id in self.assigned):
                    self.fail(f"loop trip count depends on {node.id!r}, "
                              "which is not launch-invariant")
        for sub in ast.walk(s):
            if isinstance(sub, (ast.Break, ast.Continue)):
                self.fail("break/continue in a loop (lane-divergent exit; "
                          "rewrite as masked accumulation)")
        rng = ast.Call(func=it.func, args=[self.expr(a) for a in it.args],
                       keywords=[])
        body = self.block(s.body, top=top, predicated=False, in_loop=True)
        return [ast.For(target=s.target, iter=rng, body=body, orelse=[])]

    def if_stmt(self, s: ast.If, *, top: bool, predicated: bool,
                in_loop: bool = False) -> list:
        guard = (len(s.body) == 1 and isinstance(s.body[0], ast.Return)
                 and s.body[0].value is None and not s.orelse)
        if guard:
            if not top or predicated:
                self.fail("guard return below the kernel top level")
            if self.is_gen:
                self.fail("guard return in a barrier kernel (lanes would "
                          "diverge at the barrier)")
            return [ast.Expr(_lanes_call("refine", [self.expr(s.test)]))]
        # Predicated conditional: the condition is evaluated exactly once
        # (body stores may mutate its operands), then each arm runs with
        # the lane mask narrowed — a select-style conditional.
        cond_name = f"__vec_c{self.tmp_count}__"
        self.tmp_count += 1
        out = [ast.Assign(targets=[ast.Name(cond_name, ctx=ast.Store())],
                          value=self.expr(s.test))]
        body = self.block(s.body, top=False, predicated=True)
        out.append(ast.With(
            items=[ast.withitem(context_expr=_lanes_call(
                "where", [ast.Name(cond_name, ctx=ast.Load())]))],
            body=body))
        if s.orelse:
            orelse = self.block(s.orelse, top=False, predicated=True)
            out.append(ast.With(
                items=[ast.withitem(context_expr=_lanes_call(
                    "where_not", [ast.Name(cond_name, ctx=ast.Load())]))],
                body=orelse))
        return out

    def yield_stmt(self, s: ast.Expr, *, top: bool, predicated: bool):
        if not top or predicated:
            self.fail("barrier inside a conditional (divergent)")
        value = s.value.value
        if value is None:
            self.fail("bare yield; barrier kernels yield "
                      "item.barrier(...)")
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id == self.index
                and value.func.attr == "barrier"):
            self.fail("only `yield <index>.barrier(...)` is batchable")
        for arg in list(value.args) + [kw.value for kw in value.keywords]:
            if not isinstance(arg, (ast.Name, ast.Attribute, ast.Constant)):
                self.fail("barrier argument must be a fence-space constant")
        return s  # kept verbatim: one yield = one array phase

    def assign(self, s: ast.Assign, *, predicated: bool) -> ast.Assign:
        if len(s.targets) != 1:
            self.fail("chained assignment")
        return ast.Assign(
            targets=[self.store_target(s.targets[0], predicated)],
            value=self.expr(s.value))

    def store_target(self, t, predicated: bool):
        if isinstance(t, ast.Name):
            if predicated:
                self.fail(f"assignment to name {t.id!r} inside a "
                          "conditional (lane-divergent binding)")
            self.assigned.add(t.id)
            return t
        if isinstance(t, ast.Subscript):
            return ast.Subscript(value=self.expr(t.value),
                                 slice=self.subscript_key(t.slice),
                                 ctx=ast.Store())
        if isinstance(t, ast.Tuple):
            return ast.Tuple(
                elts=[self.store_target(e, predicated) for e in t.elts],
                ctx=ast.Store())
        self.fail(f"unsupported assignment target {type(t).__name__}")

    def aug_assign(self, s: ast.AugAssign, *, predicated: bool):
        if isinstance(s.target, ast.Name):
            if predicated:
                self.fail(f"augmented assignment to name {s.target.id!r} "
                          "inside a conditional")
            self.assigned.add(s.target.id)
            target = s.target
        elif isinstance(s.target, ast.Subscript):
            target = ast.Subscript(value=self.expr(s.target.value),
                                   slice=self.subscript_key(s.target.slice),
                                   ctx=ast.Store())
        else:
            self.fail("unsupported augmented-assignment target")
        return ast.AugAssign(target=target, op=s.op, value=self.expr(s.value))

    # -- expressions -------------------------------------------------------

    def expr(self, e):
        if isinstance(e, (ast.Constant, ast.Name)) or _literal_only(e):
            # a literal-only expression stays Python, as the interpreter
            # evaluates it: lowered (np.minimum, np.where ...) it would
            # become a numpy scalar, which promotes float32 lanes to float64
            return e
        if isinstance(e, ast.BinOp):
            return ast.BinOp(left=self.expr(e.left), op=e.op,
                             right=self.expr(e.right))
        if isinstance(e, ast.UnaryOp):
            if isinstance(e.op, ast.Not):
                return _np_call("logical_not", [self.expr(e.operand)])
            return ast.UnaryOp(op=e.op, operand=self.expr(e.operand))
        if isinstance(e, ast.BoolOp):
            fn = "logical_and" if isinstance(e.op, ast.And) else "logical_or"
            node = self.expr(e.values[0])
            for v in e.values[1:]:
                node = _np_call(fn, [node, self.expr(v)])
            return node
        if isinstance(e, ast.Compare):
            return self.compare(e)
        if isinstance(e, ast.IfExp):
            return _np_call("where", [self.expr(e.test), self.expr(e.body),
                                      self.expr(e.orelse)])
        if isinstance(e, ast.Subscript):
            return ast.Subscript(value=self.expr(e.value),
                                 slice=self.subscript_key(e.slice),
                                 ctx=ast.Load())
        if isinstance(e, ast.Attribute):
            return self.attribute(e)
        if isinstance(e, ast.Call):
            return self.call(e)
        if isinstance(e, ast.Tuple):
            return ast.Tuple(elts=[self.expr(x) for x in e.elts],
                             ctx=ast.Load())
        self.fail(f"unsupported expression {type(e).__name__}")

    def compare(self, e: ast.Compare):
        for op in e.ops:
            if not isinstance(op, _CMP_OK):
                self.fail(f"comparison {type(op).__name__} is not batchable")
        if len(e.comparators) == 1:
            return ast.Compare(left=self.expr(e.left), ops=e.ops,
                               comparators=[self.expr(e.comparators[0])])
        # a < b < c  ->  logical_and(a < b, b < c); the shared middle
        # operand is deep-copied so the tree stays a tree
        operands = [self.expr(x) for x in [e.left, *e.comparators]]
        node = None
        for i, op in enumerate(e.ops):
            left = operands[i] if i == 0 else _copy.deepcopy(operands[i])
            pair = ast.Compare(left=left, ops=[op],
                               comparators=[operands[i + 1]])
            node = pair if node is None else _np_call("logical_and",
                                                      [node, pair])
        return node

    def subscript_key(self, k):
        if isinstance(k, ast.Tuple):
            return ast.Tuple(elts=[self.key_elt(e) for e in k.elts],
                             ctx=ast.Load())
        return self.key_elt(k)

    def key_elt(self, e):
        if isinstance(e, ast.Slice):
            for bound in (e.lower, e.upper, e.step):
                if bound is not None and not self._const_like(bound):
                    self.fail("slice with non-constant bounds (work-group "
                              "tiles index with scalar group ids)")
            return e
        return self.expr(e)

    @staticmethod
    def _const_like(e) -> bool:
        if isinstance(e, ast.Constant):
            return True
        return (isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub)
                and isinstance(e.operand, ast.Constant))

    def attribute(self, e: ast.Attribute):
        root = e
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name):
            return e  # pure name-rooted chain, e.g. np.float32
        if isinstance(root, ast.Call):
            # e.g. np.iinfo(np.int32).max — validate the inner call
            return ast.Attribute(value=self.expr(e.value), attr=e.attr,
                                 ctx=ast.Load())
        self.fail(f"attribute access on {type(root).__name__}")

    def call(self, e: ast.Call):
        for a in e.args:
            if isinstance(a, ast.Starred):
                self.fail("*args in a call")
        func = e.func
        if isinstance(func, ast.Name):
            if e.keywords:
                self.fail(f"keyword arguments to {func.id}()")
            if func.id == "abs":
                return ast.Call(func=func,
                                args=[self.expr(a) for a in e.args],
                                keywords=[])
            if func.id in ("min", "max"):
                # min(a, b, ...) lowers to nested np.minimum/np.maximum;
                # the one-argument (iterable) form has no array shape
                if len(e.args) < 2:
                    self.fail(f"builtin {func.id}() over an iterable is "
                              "scalar-only; pass two or more operands")
                fn = "minimum" if func.id == "min" else "maximum"
                node = self.expr(e.args[0])
                for a in e.args[1:]:
                    node = _np_call(fn, [node, self.expr(a)])
                return node
            if func.id == "float":
                # float(x) promotes to IEEE double exactly like the
                # interpreter's Python float does
                if len(e.args) != 1:
                    self.fail("float() takes exactly one argument")
                return _np_call("float64", [self.expr(e.args[0])])
            if func.id in _SCALAR_BUILTINS:
                self.fail(f"builtin {func.id}() is scalar-only")
            self.fail(f"call to {func.id}() (only numpy and the index API "
                      "are batchable)")
        if not isinstance(func, ast.Attribute):
            self.fail("unsupported call form")
        root = func.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if not isinstance(root, ast.Name):
            self.fail("method call on a computed object")
        if root.id == self.index:
            if func.value is not root:
                self.fail("chained index-object access")
            if func.attr not in _INDEX_METHODS:
                self.fail(f"index method {func.attr}() is not batchable")
            if e.keywords:
                self.fail(f"keyword arguments to {func.attr}()")
            return ast.Call(func=func, args=[self.expr(a) for a in e.args],
                            keywords=[])
        if root.id in self.params:
            self.fail(f"method call on kernel argument {root.id!r}")
        target = self.glb.get(root.id)
        if isinstance(target, types.ModuleType):
            modname = getattr(target, "__name__", "")
            if modname == "numpy" or modname.startswith("numpy."):
                return ast.Call(
                    func=func, args=[self.expr(a) for a in e.args],
                    keywords=[ast.keyword(arg=kw.arg,
                                          value=self.expr(kw.value))
                              for kw in e.keywords])
            if modname == "math" or modname.startswith("math."):
                np_name = _MATH_TO_NP.get(func.attr)
                if np_name is None or func.value is not root:
                    self.fail(f"math.{func.attr}() has no numpy lowering")
                if e.keywords:
                    self.fail(f"keyword arguments to math.{func.attr}()")
                return _np_call(np_name,
                                [self.expr(a) for a in e.args])
            self.fail(f"call into module {modname!r}")
        self.fail(f"call to {ast.unparse(func)}() is not batchable")


#: the first line of an undecorated function
_DEF_LINE = re.compile(r"\s*(async\s+)?def\s")
#: code objects carry end line numbers (``co_positions``) from Python 3.11
_CODE_POSITIONS = hasattr(types.CodeType, "co_positions")


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _function_source(fn) -> str:
    """The source of a ``def`` kernel, read without tokenizing.

    ``inspect.getsource`` runs the pure-Python tokenizer to find where
    the function's block ends; the code objects already know.  The
    text runs from the ``def`` line (``co_firstlineno``) to the last
    line that an instruction of the function or of a nested code object
    covers, then on over following lines indented deeper than the
    ``def`` (lines without instructions: a trailing docstring, dead code
    after a ``return``).  Lambdas, decorated, wrapped or non-function
    callables, unreadable files, a ``co_firstlineno`` that is not a
    ``def`` line (a file edited since import), and interpreters whose
    code objects have no ``co_positions`` go to ``inspect.getsource``,
    which returns the same text or raises the same error.
    """
    if (not _CODE_POSITIONS or not isinstance(fn, types.FunctionType)
            or hasattr(fn, "__wrapped__")
            or fn.__code__.co_name == "<lambda>"):
        return inspect.getsource(fn)
    code = fn.__code__
    filename = code.co_filename
    linecache.checkcache(filename)  # as inspect.findsource: reread edits
    lines = linecache.getlines(filename, fn.__globals__)
    first = code.co_firstlineno - 1
    if not 0 <= first < len(lines) or not _DEF_LINE.match(lines[first]):
        return inspect.getsource(fn)
    end = first + 1
    codes = [code]
    while codes:
        c = codes.pop()
        end = max([end] + [e for _, e, _, _ in c.co_positions()
                           if e is not None])
        codes.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    indent = _indent(lines[first])
    while end < len(lines) and (not lines[end].strip()
                                or _indent(lines[end]) > indent):
        end += 1
    return "".join(lines[first:end])


def _translate(fn) -> tuple:
    if getattr(fn, "__closure__", None):
        raise _Ineligible("kernel closes over free variables")
    try:
        src = _function_source(fn)
    except (OSError, TypeError) as exc:
        raise _Ineligible(f"source unavailable ({exc})")
    try:
        tree = ast.parse(textwrap.dedent(src))
    except SyntaxError as exc:
        raise _Ineligible(f"source does not parse standalone ({exc})")
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        raise _Ineligible("not a plain function definition")
    fdef = tree.body[0]
    if fdef.decorator_list:
        raise _Ineligible("decorated kernels are not traceable")
    a = fdef.args
    if (a.vararg or a.kwarg or a.kwonlyargs or a.defaults or a.kw_defaults
            or a.posonlyargs):
        raise _Ineligible("only plain positional parameters are supported")
    params = [arg.arg for arg in a.args]
    if not params:
        raise _Ineligible("kernel takes no index argument")
    glb = dict(fn.__globals__)
    glb["__vec_np__"] = np
    is_gen = inspect.isgeneratorfunction(fn)
    rewriter = _Rewriter(params[0], glb, is_gen, set(params))
    body = rewriter.block(fdef.body, top=True, predicated=False)
    new_name = fdef.name + "__batched"
    new_def = ast.FunctionDef(
        name=new_name,
        args=ast.arguments(
            posonlyargs=[],
            args=[ast.arg(arg="__lanes__")] + [ast.arg(arg=p)
                                               for p in params],
            vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
            defaults=[]),
        body=body, decorator_list=[], returns=None)
    module = ast.Module(body=[new_def], type_ignores=[])
    ast.fix_missing_locations(module)
    code = compile(module, f"<vectorize:{fn.__module__}.{fn.__qualname__}>",
                   "exec")
    exec(code, glb)
    return glb[new_name], None


@lru_cache(maxsize=256)
def translate(fn) -> tuple:
    """Lift one kernel function into its batched form.

    Returns ``(batched_fn, None)`` on success or ``(None, reason)`` when
    the source falls outside the batchable dialect.  Memoized per
    function object — translation happens once per kernel per process.
    """
    try:
        return _translate(fn)
    except _Ineligible as exc:
        return None, str(exc)


# ---------------------------------------------------------------------------
# Lane runtime
# ---------------------------------------------------------------------------

class _LaneCtx:
    """The live-lane mask of one batched launch.

    ``mask is None`` means every lane is live (the fast path — no
    boolean array is ever materialized for unguarded kernels).
    ``refine`` retires the lanes a top-level guard returned for;
    ``where`` / ``where_not`` narrow the mask for one predicated region
    and restore it on exit.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int):
        self.n = n
        self.mask = None

    def gather_index(self, c):
        """One key component of a masked load, dead lanes set to 0."""
        if isinstance(c, np.ndarray) and c.shape == (self.n,):
            return np.where(self.mask, c, 0)
        return c

    def refine(self, cond) -> None:
        cond = np.broadcast_to(np.asarray(cond, dtype=bool), (self.n,))
        keep = np.logical_not(cond)
        self.mask = (keep.copy() if self.mask is None
                     else np.logical_and(self.mask, keep))

    @contextmanager
    def where(self, cond):
        yield from self._masked(cond, invert=False)

    @contextmanager
    def where_not(self, cond):
        yield from self._masked(cond, invert=True)

    def _masked(self, cond, *, invert: bool):
        cond = np.broadcast_to(np.asarray(cond, dtype=bool), (self.n,))
        if invert:
            cond = np.logical_not(cond)
        saved = self.mask
        self.mask = (cond.copy() if saved is None
                     else np.logical_and(saved, cond))
        try:
            yield
        finally:
            self.mask = saved


class _BatchArray:
    """A per-launch ndarray wrapper that gathers/scatters under the mask.

    Loads neutralize dead-lane index components to 0 (always in
    bounds); stores compress lane-shaped keys and values down to the
    live lanes.  An all-scalar store from a lane-shaped value keeps the
    interpreter's last-writer-wins order because lanes are laid out in
    exact interpreter iteration order.
    """

    __slots__ = ("_arr", "_ctx")

    def __init__(self, arr: np.ndarray, ctx: _LaneCtx):
        self._arr = arr
        self._ctx = ctx

    def _is_lane(self, c) -> bool:
        return isinstance(c, np.ndarray) and c.ndim >= 1 \
            and c.shape[0] == self._ctx.n

    def __getitem__(self, key):
        ctx = self._ctx
        if ctx.mask is None:
            return self._arr[key]
        if isinstance(key, tuple):
            return self._arr[tuple([ctx.gather_index(c) for c in key])]
        return self._arr[ctx.gather_index(key)]

    def __setitem__(self, key, value) -> None:
        ctx = self._ctx
        mask = ctx.mask
        comps = key if isinstance(key, tuple) else (key,)
        lane_key = any(isinstance(c, np.ndarray) and c.shape == (ctx.n,)
                       for c in comps)
        lane_val = self._is_lane(value)
        if mask is None:
            if lane_key or not lane_val:
                self._arr[key] = value
            else:
                self._arr[key] = value[-1]  # last lane wins
            return
        if not mask.any():
            return
        if lane_key:
            def fix(c):
                if isinstance(c, np.ndarray) and c.shape == (ctx.n,):
                    return c[mask]
                return c
            new_key = tuple(fix(c) for c in comps)
            if not isinstance(key, tuple):
                new_key = new_key[0]
            self._arr[new_key] = value[mask] if lane_val else value
        else:
            self._arr[key] = value[mask][-1] if lane_val else value


class _BatchLocal:
    """Per-group shadow of one :class:`LocalAccessor` tile.

    The interpreter gives each work-group its own zeroed tile
    (``_begin_group``); the batched program mirrors that with one
    ``(num_groups, *tile_shape)`` shadow array and prepends every
    lane's group-linear id to every subscript — lane ``l`` can only
    ever see its own group's slice, so barrier-phase tile traffic
    keeps exact work-group locality.
    """

    __slots__ = ("_batch", "_groups")

    def __init__(self, acc: LocalAccessor, ctx: _LaneCtx,
                 group_linear: np.ndarray, num_groups: int):
        shadow = np.zeros((num_groups,) + tuple(acc.shape),
                          dtype=acc.dtype)
        self._batch = _BatchArray(shadow, ctx)
        self._groups = group_linear

    def _key(self, key) -> tuple:
        comps = key if isinstance(key, tuple) else (key,)
        return (self._groups,) + tuple(comps)

    def __getitem__(self, key):
        return self._batch[self._key(key)]

    def __setitem__(self, key, value) -> None:
        self._batch[self._key(key)] = value


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _grid_rows(extents: tuple) -> np.ndarray:
    """All index points of an extent as ``(ndim, n)`` rows, row-major."""
    return np.indices(extents, dtype=np.intp).reshape(len(extents), -1)


def _frozen_rows(rows: np.ndarray) -> tuple:
    return tuple(_freeze(r) for r in rows)


@lru_cache(maxsize=128)
def _item_lanes(global_dims: tuple, local_dims: tuple) -> dict:
    """Per-lane id arrays in exact interpreter iteration order: groups
    row-major, and within each group its local points row-major."""
    group_extents = tuple(g // l for g, l in zip(global_dims, local_dims))
    grp = _grid_rows(group_extents)
    loc = _grid_rows(local_dims)
    per_group, num_groups = loc.shape[1], grp.shape[1]
    grp = np.repeat(grp, per_group, axis=1)
    loc = np.tile(loc, (1, num_groups))
    glob = grp * np.array(local_dims, dtype=np.intp)[:, None] + loc
    return {
        "n": per_group * num_groups,
        "global": _frozen_rows(glob),
        "local": _frozen_rows(loc),
        "group": _frozen_rows(grp),
        "global_linear": _freeze(np.ravel_multi_index(tuple(glob),
                                                      global_dims)),
        "local_linear": _freeze(np.tile(np.arange(per_group, dtype=np.intp),
                                        num_groups)),
        "group_linear": _freeze(np.repeat(
            np.arange(num_groups, dtype=np.intp), per_group)),
    }


class _BatchItem:
    """The ``nd_item`` proxy: accessors return per-lane index arrays."""

    __slots__ = ("_lanes", "_nd_range", "_group_range")

    def __init__(self, lanes: dict, nd_range: NdRange):
        self._lanes = lanes
        self._nd_range = nd_range
        self._group_range = nd_range.group_range()

    def get_global_id(self, i=None):
        if i is None:
            raise VectorizeFallback("get_global_id() without a dimension "
                                    "is not batchable")
        return self._lanes["global"][i]

    def get_local_id(self, i=None):
        if i is None:
            raise VectorizeFallback("get_local_id() without a dimension "
                                    "is not batchable")
        return self._lanes["local"][i]

    def get_group(self, i=None):
        if i is None:
            raise VectorizeFallback("get_group() without a dimension "
                                    "is not batchable")
        return self._lanes["group"][i]

    def get_global_linear_id(self):
        return self._lanes["global_linear"]

    def get_local_linear_id(self):
        return self._lanes["local_linear"]

    def get_global_range(self, i=None):
        rng = self._nd_range.global_range
        return rng if i is None else rng[i]

    def get_local_range(self, i=None):
        rng = self._nd_range.local_range
        return rng if i is None else rng[i]

    def get_group_range(self, i=None):
        return self._group_range if i is None else self._group_range[i]

    def barrier(self, fence_space: FenceSpace = FenceSpace.GLOBAL_AND_LOCAL
                ) -> BarrierToken:
        return BarrierToken(fence_space)


# ---------------------------------------------------------------------------
# The compiled kernel object (held by LaunchPlan)
# ---------------------------------------------------------------------------

_SCALAR_ARGS = (int, float, complex, bool, str, bytes, np.generic)
#: what a launch signature records by type (the bound scalars plus None)
_SCALARS = _SCALAR_ARGS + (type(None),)


def _arg_signature(arg) -> tuple | None:
    """What a batched program's bits depend on in one launch argument:
    an ndarray's dtype, shape and layout, a local tile's dtype and
    shape, a scalar's type; ``None`` for anything else."""
    if isinstance(arg, np.ndarray):
        if arg.flags.c_contiguous:
            layout = "C"
        elif arg.flags.f_contiguous:
            layout = "F"
        else:
            layout = arg.strides
        return ("ndarray", str(arg.dtype.descr), arg.shape, layout)
    if isinstance(arg, LocalAccessor):
        return ("local", str(arg.dtype.descr), tuple(arg.shape))
    if isinstance(arg, _SCALARS):
        cls = type(arg)
        return ("scalar", f"{cls.__module__}.{cls.__qualname__}")
    return None


class CompiledKernel:
    """One kernel's batched program, bound to one launch shape.

    A program is proven per launch **signature** (:meth:`signature`):
    ``proofs`` maps each signature to how it was proven, ``"shadow"``
    (this process compared bitwise, see :mod:`repro.sycl.plan`) or
    ``"certificate"`` (a persisted proof, see
    :mod:`repro.sycl.certificates`).  The first launch of an unproven
    signature runs :meth:`shadow_run` on buffer copies and is proven
    only on a bitwise match with the per-item interpreter.
    """

    __slots__ = ("kernel_name", "form", "fn", "is_generator", "nd_range",
                 "n", "proxy", "proofs", "group_linear", "num_groups")

    def __init__(self, kernel_name: str, form: str, fn, is_generator: bool,
                 nd_range: NdRange):
        self.kernel_name = kernel_name
        self.form = form
        self.fn = fn
        self.is_generator = is_generator
        self.nd_range = nd_range
        lanes = _item_lanes(nd_range.global_range.dims,
                            nd_range.local_range.dims)
        self.proxy = _BatchItem(lanes, nd_range)
        self.num_groups = nd_range.num_groups()
        self.n = lanes["n"]
        self.group_linear = lanes["group_linear"]
        self.proofs: dict = {}

    @staticmethod
    def signature(args: tuple) -> tuple:
        """The launch signature a proof covers: one
        :func:`_arg_signature` per argument."""
        return tuple(_arg_signature(a) for a in args)

    @property
    def validated_by(self) -> str | None:
        """How the first proven signature was proven (``None`` before)."""
        return next(iter(self.proofs.values()), None)

    @property
    def validated(self) -> bool:
        """Whether any launch signature has been proven."""
        return bool(self.proofs)

    def __repr__(self) -> str:
        return (f"CompiledKernel({self.kernel_name!r}, form={self.form!r}, "
                f"lanes={self.n}, validated={self.validated})")

    def bind(self, args: tuple) -> tuple:
        """Wrap launch arguments for the batched program.

        Raises :class:`VectorizeFallback` — before anything executes —
        for argument types the batched runtime cannot represent.
        ``LocalAccessor`` tiles get a fresh per-group shadow array
        (:class:`_BatchLocal`) per bind, mirroring the interpreter's
        zeroed per-group tile.
        """
        ctx = _LaneCtx(self.n)
        wrapped = []
        for a in args:
            if isinstance(a, np.ndarray):
                wrapped.append(_BatchArray(a, ctx))
            elif isinstance(a, LocalAccessor):
                wrapped.append(_BatchLocal(a, ctx, self.group_linear,
                                           self.num_groups))
            elif a is None or isinstance(a, _SCALAR_ARGS):
                wrapped.append(a)
            else:
                raise VectorizeFallback(
                    f"unsupported argument type {type(a).__name__}")
        return ctx, tuple(wrapped)

    def run(self, bound: tuple, tracer=None) -> int:
        """Execute the batched program; returns the barrier-phase count.

        Dead lanes may evaluate garbage operands (their stores are
        masked off), so numpy's floating-point warnings are suppressed
        for the duration — results are unaffected.
        """
        ctx, wrapped = bound
        with np.errstate(all="ignore"):
            if not self.is_generator:
                self.fn(ctx, self.proxy, *wrapped)
                return 0
            gen = self.fn(ctx, self.proxy, *wrapped)
            phases = 0
            while True:
                start = tracer.now_us() if tracer is not None else 0.0
                try:
                    token = next(gen)
                except StopIteration:
                    break
                if not isinstance(token, BarrierToken):
                    raise VectorizeFallback(
                        f"kernel {self.kernel_name!r} yielded {token!r}")
                if tracer is not None:
                    tracer.complete(
                        f"{self.kernel_name}:barrier-phase", "barrier-phase",
                        start, tracer.now_us() - start, phase=phases,
                        batched=True)
                phases += 1
            return phases

    def execute(self, args: tuple, tracer=None) -> int:
        """Bind and run on the real buffers (validated plans only)."""
        return self.run(self.bind(args), tracer)

    def shadow_run(self, args: tuple) -> tuple:
        """Run the batched program on *copies* of the buffers.

        Returns the copies for :meth:`buffers_match`; the real buffers
        are untouched no matter what the program does.
        """
        copies = tuple(a.copy() if isinstance(a, np.ndarray) else a
                       for a in args)
        self.execute(copies)
        return copies

    @staticmethod
    def buffers_match(shadow_args: tuple, real_args: tuple) -> bool:
        """Bitwise comparison of every ndarray argument."""
        for shadow, real in zip(shadow_args, real_args):
            if isinstance(real, np.ndarray):
                if shadow.tobytes() != real.tobytes():
                    return False
        return True


def eligible_form(kernel: KernelSpec) -> tuple:
    """Whether a kernel's ``item_fn`` is batchable.

    Returns ``("item", None)`` or ``(None, reason)``.  Validation and
    fallback target the per-item interpreter, the same path a
    vectorize-disabled run takes, so on/off runs stay byte-identical by
    construction.
    """
    if kernel.kind != KernelKind.ND_RANGE:
        return None, "not an nd-range kernel"
    if kernel.feature("no_vectorize"):
        return None, "kernel opted out (no_vectorize feature)"
    if kernel.item_fn is None:
        return None, "no item_fn"
    batched, reason = translate(kernel.item_fn)
    return ("item", None) if batched is not None \
        else (None, f"item_fn: {reason}")


def compile_batched(kernel: KernelSpec, nd_range: NdRange) -> tuple:
    """Compile one kernel's batched program for one launch shape.

    Returns ``(CompiledKernel, None)`` or ``(None, reason)``.  The
    translation itself is memoized per function; only the (cheap) lane
    arrays are per-shape — and those are lru-cached too.
    """
    form, reason = eligible_form(kernel)
    if form is None:
        return None, reason
    batched, reason = translate(kernel.item_fn)
    if batched is None:
        return None, reason
    return CompiledKernel(kernel.name, form, batched,
                          inspect.isgeneratorfunction(kernel.item_fn),
                          nd_range), None


def vectorize_cache_info() -> dict:
    """lru_cache statistics of the translation and lane-array caches."""
    return {
        "translate": translate.cache_info(),
        "item_lanes": _item_lanes.cache_info(),
    }


def clear_vectorize_caches() -> None:
    translate.cache_clear()
    _item_lanes.cache_clear()
